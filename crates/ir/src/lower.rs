//! Lowering from the AST to the basic-block IR.
//!
//! Lowering performs:
//!
//! * **alpha-renaming** — every local binding gets a function-unique name
//!   (`x`, `x$1`, `x$2`, ...), so the may-alias set of each location is a
//!   singleton (the Rust-ownership simplification of §5.2);
//! * **CFG construction** — `if` becomes a diamond, `repeat n` becomes a
//!   counted loop with a back edge;
//! * **return landing-pad** — every `return` funnels into one exit block
//!   whose terminator is the function's only `Ret` (§6.2 relies on this
//!   for post-dominance);
//! * **region numbering** — manual `atomic { }` blocks get program-unique
//!   [`RegionId`]s.

use crate::ast::{self, Arg, AstProgram, Expr, FunDecl, Ident, Stmt};
use crate::error::{IrError, Result};
use crate::ir::*;
use crate::span::Span;
use std::collections::HashMap;

/// Name of the synthetic return slot. User identifiers cannot contain `$`.
pub const RET_SLOT: &str = "$ret";

/// Lowers a parsed program to IR, consuming it: names, expressions and
/// spans move from the AST into the instructions that use them.
///
/// # Errors
///
/// Returns [`IrError::Lower`] when the program references undeclared
/// functions or has no `main`.
pub fn lower(ast: AstProgram) -> Result<Program> {
    let AstProgram {
        sensors,
        globals,
        funcs,
    } = ast;
    let mut name_to_id = HashMap::with_capacity(funcs.len());
    for (i, f) in funcs.iter().enumerate() {
        if name_to_id
            .insert(f.name.clone(), FuncId(i as u32))
            .is_some()
        {
            return Err(IrError::lower(format!(
                "function `{}` declared more than once",
                f.name
            )));
        }
    }
    let main = *name_to_id
        .get("main")
        .ok_or_else(|| IrError::lower("program has no `main` function"))?;

    let mut next_region = 0u32;
    let mut names = Names::default();
    let mut lowered = Vec::with_capacity(funcs.len());
    for (i, f) in funcs.into_iter().enumerate() {
        lowered.push(FnLower::run(
            FuncId(i as u32),
            f,
            &name_to_id,
            &mut next_region,
            &mut names,
        )?);
    }

    let globals = globals
        .into_iter()
        .map(|g| IrGlobal {
            name: g.name,
            array_len: g.array_len,
            init: g.init,
        })
        .collect();
    let sensors = sensors.into_iter().map(|s| s.name).collect();

    Ok(Program::with_index(
        lowered,
        globals,
        sensors,
        main,
        next_region,
        name_to_id,
    ))
}

/// Convenience: parse then lower.
///
/// # Errors
///
/// Propagates lexer, parser, and lowering errors.
pub fn compile(src: &str) -> Result<Program> {
    let _span = ocelot_telemetry::span!("parse");
    let p = lower(crate::parser::parse(src)?)?;
    // Parsed statements always carry real spans, and lowering threads
    // them onto every instruction — the diagnostics layer depends on
    // this, so enforce it on the parse path (builder-made programs are
    // exempt: their AST legitimately has empty spans).
    debug_assert!(
        crate::validate::validate_spans(&p).is_ok(),
        "lowering dropped a source span: {:?}",
        crate::validate::validate_spans(&p)
    );
    Ok(p)
}

/// Lexical scopes for alpha-renaming, reused from one function to the
/// next. Each distinct source name has a slot that counts how often the
/// function has bound it and points at its innermost visible binding;
/// each binding points at the one it shadows, so closing a scope pops
/// its bindings and restores what they hid.
#[derive(Default)]
struct Names {
    slot_of: HashMap<Ident, u32>,
    slots: Vec<Slot>,
    /// The bindings of the open scopes, innermost last.
    stack: Vec<Binding>,
    /// `stack.len()` when each inner scope opened.
    marks: Vec<usize>,
    /// The function's locals (unique names), in binding order.
    locals: Vec<Ident>,
}

struct Slot {
    /// Renamed bindings so far: the next one is `name$binds`.
    binds: u32,
    /// Index in `Names::stack` of the innermost visible binding.
    top: Option<u32>,
}

struct Binding {
    slot: u32,
    /// The binding this one hides.
    shadows: Option<u32>,
    /// Index in `Names::locals` of the unique name; `None` for a name
    /// in scope under its own name.
    local: Option<u32>,
}

impl Names {
    fn reset(&mut self) {
        self.slot_of.clear();
        self.slots.clear();
        self.stack.clear();
        self.marks.clear();
        self.locals.clear();
    }

    /// Pushes a binding of `name` and returns its slot.
    fn push(&mut self, name: &str, local: Option<u32>) -> usize {
        let slot = match self.slot_of.get(name) {
            Some(&i) => i,
            None => {
                let i = self.slots.len() as u32;
                self.slot_of.insert(name.to_owned(), i);
                self.slots.push(Slot {
                    binds: 0,
                    top: None,
                });
                i
            }
        };
        let top = Some(self.stack.len() as u32);
        let shadows = std::mem::replace(&mut self.slots[slot as usize].top, top);
        self.stack.push(Binding {
            slot,
            shadows,
            local,
        });
        slot as usize
    }

    /// Brings `name` into scope under its own name without counting it
    /// as a binding (parameters and the return slot): a `let` of the
    /// same name later reuses it.
    fn declare(&mut self, name: &str) {
        self.push(name, None);
    }

    /// Binds `name` in the innermost scope, records the unique name
    /// among the locals and returns it.
    fn bind(&mut self, name: Ident) -> Ident {
        let slot = self.push(&name, Some(self.locals.len() as u32));
        let binds = &mut self.slots[slot].binds;
        let unique = match *binds {
            0 => name,
            n => format!("{name}${n}"),
        };
        *binds += 1;
        self.locals.push(unique.clone());
        unique
    }

    /// Rewrites a use of `name` to the binding in scope. Names with no
    /// local binding (globals, sensors, channels) stay as they are;
    /// validation reports the truly unknown ones.
    fn resolve(&self, name: &mut Ident) {
        let Some(&slot) = self.slot_of.get(name) else {
            return;
        };
        let Some(top) = self.slots[slot as usize].top else {
            return;
        };
        if let Some(local) = self.stack[top as usize].local {
            let unique = &self.locals[local as usize];
            if unique != name {
                name.clone_from(unique);
            }
        }
    }

    fn open(&mut self) {
        self.marks.push(self.stack.len());
    }

    fn close(&mut self) {
        let mark = self.marks.pop().expect("close matches an open");
        for b in self.stack.drain(mark..).rev() {
            self.slots[b.slot as usize].top = b.shadows;
        }
    }
}

struct FnLower<'a> {
    name: Ident,
    name_to_id: &'a HashMap<Ident, FuncId>,
    next_region: &'a mut u32,

    /// Sealed blocks, indexed by id (ids are allocated by a counter;
    /// `cur_id` starts at 0).
    blocks: Vec<Option<Block>>,
    cur: Vec<Inst>,
    cur_id: BlockId,
    next_label: u32,

    names: &'a mut Names,
    /// Span of the statement currently being lowered; every emitted
    /// instruction and terminator inherits it. Starts at the function
    /// declaration header (covers the synthetic `$ret` init).
    cur_span: Span,
}

impl<'a> FnLower<'a> {
    fn run(
        id: FuncId,
        decl: FunDecl,
        name_to_id: &'a HashMap<Ident, FuncId>,
        next_region: &'a mut u32,
        names: &'a mut Names,
    ) -> Result<Function> {
        let FunDecl {
            name,
            params,
            body,
            span,
        } = decl;
        names.reset();
        let mut lw = FnLower {
            name,
            name_to_id,
            next_region,
            blocks: vec![None],
            cur: Vec::new(),
            cur_id: BlockId(0),
            next_label: 0,
            names,
            cur_span: span,
        };

        // Parameters are in scope under their own names.
        for p in &params {
            lw.names.declare(&p.name);
        }
        // Synthetic return slot (carries the declaration-header span).
        let ret_label = lw.fresh_label();
        lw.cur.push(Inst {
            label: ret_label,
            op: Op::Bind {
                var: RET_SLOT.into(),
                src: Expr::Int(0),
            },
            span,
        });
        lw.names.locals.push(RET_SLOT.into());
        lw.names.declare(RET_SLOT);

        // Lower the whole body, then seal with the landing pad.
        let exit = lw.fresh_block();
        lw.lower_stmts(body.stmts, exit)?;
        // Fall off the end: jump to the landing pad.
        lw.seal(Terminator::Jump(exit));
        // Emit the landing pad itself (spanned to the declaration: the
        // synthetic return belongs to the function as a whole).
        lw.cur_id = exit;
        lw.cur_span = span;
        lw.seal_to(Terminator::Ret(Some(Expr::Var(RET_SLOT.into()))), exit);

        let (blocks, exit) = prune_unreachable(lw.blocks, exit);
        Ok(Function {
            id,
            name: lw.name,
            params: params
                .into_iter()
                .map(|p| IrParam {
                    name: p.name,
                    by_ref: p.by_ref,
                })
                .collect(),
            blocks,
            entry: BlockId(0),
            exit,
            locals: std::mem::take(&mut lw.names.locals),
            next_label: lw.next_label,
        })
    }

    fn fresh_label(&mut self) -> Label {
        let l = Label(self.next_label);
        self.next_label += 1;
        l
    }

    fn fresh_block(&mut self) -> BlockId {
        self.blocks.push(None);
        BlockId(self.blocks.len() as u32 - 1)
    }

    /// Ends the current block with `term` and opens a new one.
    fn seal(&mut self, term: Terminator) {
        let next = self.fresh_block();
        self.seal_to(term, next);
    }

    /// Ends the current block with `term`, continuing in `next`.
    fn seal_to(&mut self, term: Terminator, next: BlockId) {
        let term_label = self.fresh_label();
        self.blocks[self.cur_id.0 as usize] = Some(Block {
            id: self.cur_id,
            instrs: std::mem::take(&mut self.cur),
            term,
            term_label,
            term_span: self.cur_span,
        });
        self.cur_id = next;
    }

    fn push(&mut self, op: Op) {
        let label = self.fresh_label();
        self.cur.push(Inst {
            label,
            op,
            span: self.cur_span,
        });
    }

    // ---- naming --------------------------------------------------------

    fn resolved(&self, mut name: Ident) -> Ident {
        self.names.resolve(&mut name);
        name
    }

    fn rename_expr(&self, e: &mut Expr) {
        match e {
            Expr::Int(_) | Expr::Bool(_) => {}
            Expr::Var(x) | Expr::Deref(x) | Expr::Ref(x) => self.names.resolve(x),
            Expr::Index(a, i) => {
                self.names.resolve(a);
                self.rename_expr(i);
            }
            Expr::Binary(_, l, r) => {
                self.rename_expr(l);
                self.rename_expr(r);
            }
            Expr::Unary(_, x) => self.rename_expr(x),
        }
    }

    fn renamed(&self, mut e: Expr) -> Expr {
        self.rename_expr(&mut e);
        e
    }

    fn rename_args(&self, args: &mut [Arg]) {
        for a in args {
            match a {
                Arg::Value(e) => self.rename_expr(e),
                Arg::Ref(x) => self.names.resolve(x),
            }
        }
    }

    // ---- statements ------------------------------------------------------

    fn lower_stmts(&mut self, stmts: Vec<Stmt>, exit: BlockId) -> Result<()> {
        for s in stmts {
            self.lower_stmt(s, exit)?;
        }
        Ok(())
    }

    /// Lowers `stmts` in a scope of their own.
    fn lower_scoped(&mut self, stmts: Vec<Stmt>, exit: BlockId) -> Result<()> {
        self.names.open();
        self.lower_stmts(stmts, exit)?;
        self.names.close();
        Ok(())
    }

    fn lower_stmt(&mut self, s: Stmt, exit: BlockId) -> Result<()> {
        self.cur_span = s.span();
        match s {
            Stmt::Skip(_) => self.push(Op::Skip),
            Stmt::Let(x, e, _) => {
                let src = self.renamed(e);
                let var = self.names.bind(x);
                self.push(Op::Bind { var, src });
            }
            Stmt::LetFresh(x, e, _) => {
                let src = self.renamed(e);
                let var = self.names.bind(x);
                self.push(Op::Bind {
                    var: var.clone(),
                    src,
                });
                self.push(Op::Annot {
                    kind: AnnotKind::Fresh,
                    var,
                });
            }
            Stmt::LetConsistent(id, x, e, _) => {
                let src = self.renamed(e);
                let var = self.names.bind(x);
                self.push(Op::Bind {
                    var: var.clone(),
                    src,
                });
                self.push(Op::Annot {
                    kind: AnnotKind::Consistent(id),
                    var,
                });
            }
            Stmt::LetInput(x, sensor, _) => {
                let var = self.names.bind(x);
                self.push(Op::Input { var, sensor });
            }
            Stmt::LetCall(x, f, mut args, _) => {
                let callee = self.lookup_fn(&f)?;
                self.rename_args(&mut args);
                let var = self.names.bind(x);
                self.push(Op::Call {
                    dst: Some(var),
                    callee,
                    args,
                });
            }
            Stmt::CallStmt(f, mut args, _) => {
                let callee = self.lookup_fn(&f)?;
                self.rename_args(&mut args);
                self.push(Op::Call {
                    dst: None,
                    callee,
                    args,
                });
            }
            Stmt::Assign(x, e, _) => {
                let src = self.renamed(e);
                let place = Place::Var(self.resolved(x));
                self.push(Op::Assign { place, src });
            }
            Stmt::AssignIndex(a, i, e, _) => {
                let idx = self.renamed(i);
                let src = self.renamed(e);
                self.push(Op::Assign {
                    place: Place::Index(self.resolved(a), idx),
                    src,
                });
            }
            Stmt::AssignDeref(x, e, _) => {
                let src = self.renamed(e);
                self.push(Op::Assign {
                    place: Place::Deref(self.resolved(x)),
                    src,
                });
            }
            Stmt::FreshAnnot(x, _) => {
                self.push(Op::Annot {
                    kind: AnnotKind::Fresh,
                    var: self.resolved(x),
                });
            }
            Stmt::ConsistentAnnot(x, id, _) => {
                self.push(Op::Annot {
                    kind: AnnotKind::Consistent(id),
                    var: self.resolved(x),
                });
            }
            Stmt::Out(channel, mut args, _) => {
                for e in &mut args {
                    self.rename_expr(e);
                }
                self.push(Op::Output { channel, args });
            }
            Stmt::Return(e, _) => {
                let src = match e {
                    Some(e) => self.renamed(e),
                    None => Expr::Int(0),
                };
                self.push(Op::Assign {
                    place: Place::Var(RET_SLOT.into()),
                    src,
                });
                self.seal(Terminator::Jump(exit));
                // Statements after a return land in an unreachable block,
                // pruned later.
            }
            Stmt::If(cond, then_b, else_b, _) => {
                let cond = self.renamed(cond);
                let then_id = self.fresh_block();
                let else_id = self.fresh_block();
                let join_id = self.fresh_block();
                self.seal_to(
                    Terminator::Branch {
                        cond,
                        then_bb: then_id,
                        else_bb: if else_b.is_some() { else_id } else { join_id },
                    },
                    then_id,
                );
                self.lower_scoped(then_b.stmts, exit)?;
                self.seal_to(Terminator::Jump(join_id), else_id);
                if let Some(else_b) = else_b {
                    self.lower_scoped(else_b.stmts, exit)?;
                    self.seal_to(Terminator::Jump(join_id), join_id);
                } else {
                    // `else_id` was never targeted; emit nothing for it and
                    // continue in `join_id`. The reserved id stays unused and
                    // is compacted by pruning.
                    self.cur_id = join_id;
                }
            }
            Stmt::Repeat(n, body, _) => {
                // i = 0; head: if i < n { body; i = i + 1; jump head } after
                let counter = self.names.bind(format!("$rep{}", self.next_label));
                self.push(Op::Bind {
                    var: counter.clone(),
                    src: Expr::Int(0),
                });
                let head = self.fresh_block();
                let body_id = self.fresh_block();
                let after = self.fresh_block();
                self.seal_to(Terminator::Jump(head), head);
                self.seal_to(
                    Terminator::Branch {
                        cond: Expr::Binary(
                            ast::BinOp::Lt,
                            Box::new(Expr::Var(counter.clone())),
                            Box::new(Expr::Int(n as i64)),
                        ),
                        then_bb: body_id,
                        else_bb: after,
                    },
                    body_id,
                );
                self.lower_scoped(body.stmts, exit)?;
                self.push(Op::Assign {
                    place: Place::Var(counter.clone()),
                    src: Expr::Binary(
                        ast::BinOp::Add,
                        Box::new(Expr::Var(counter)),
                        Box::new(Expr::Int(1)),
                    ),
                });
                self.seal_to(Terminator::Jump(head), after);
            }
            Stmt::While(cond, bound, body, _) => {
                // head: if cond { body; jump head } after — the condition
                // re-evaluates every iteration (unbounded loop, §4.1).
                let head = self.fresh_block();
                let body_id = self.fresh_block();
                let after = self.fresh_block();
                self.seal_to(Terminator::Jump(head), head);
                if let Some(k) = bound {
                    // The declared trip count rides in the header block
                    // where the bound recovery looks for it.
                    self.push(Op::Annot {
                        kind: AnnotKind::Bound(k),
                        var: "$bound".into(),
                    });
                }
                let cond = self.renamed(cond);
                self.seal_to(
                    Terminator::Branch {
                        cond,
                        then_bb: body_id,
                        else_bb: after,
                    },
                    body_id,
                );
                self.lower_scoped(body.stmts, exit)?;
                self.seal_to(Terminator::Jump(head), after);
            }
            Stmt::Atomic(body, _) => {
                // Regions are instruction markers, not binding scopes:
                // `atomic { let x = ...; } out(log, x);` is legal (the
                // paper's `startatom; c; endatom` does not delimit
                // scope).
                let region = RegionId(*self.next_region);
                *self.next_region += 1;
                self.push(Op::AtomStart { region });
                self.lower_stmts(body.stmts, exit)?;
                self.push(Op::AtomEnd { region });
            }
        }
        Ok(())
    }

    fn lookup_fn(&self, name: &str) -> Result<FuncId> {
        self.name_to_id.get(name).copied().ok_or_else(|| {
            IrError::lower(format!(
                "call to undeclared function `{name}` in `{}`",
                self.name
            ))
        })
    }
}

/// Removes blocks unreachable from the entry (block 0) and renumbers
/// the rest so that `blocks[i].id == BlockId(i)`; returns them with the
/// exit's new id. `by_id` is indexed by block id, every map here is a
/// vector, and each block moves once.
fn prune_unreachable(mut by_id: Vec<Option<Block>>, exit: BlockId) -> (Vec<Block>, BlockId) {
    const GONE: u32 = u32::MAX;
    // First the reachable set (`remap[i] != GONE`), then the new ids.
    // The exit landing pad is always kept so `Function::exit` stays
    // valid even for bodies that loop forever (not expressible here,
    // but cheap to be safe about).
    let mut remap = vec![GONE; by_id.len()];
    let mut stack = vec![exit, BlockId(0)];
    while let Some(b) = stack.pop() {
        let i = b.0 as usize;
        if remap[i] != GONE {
            continue;
        }
        remap[i] = 0;
        match by_id[i].as_ref().map(|block| &block.term) {
            Some(Terminator::Jump(t)) => stack.push(*t),
            Some(Terminator::Branch {
                then_bb, else_bb, ..
            }) => stack.extend([*else_bb, *then_bb]),
            Some(Terminator::Ret(_)) | None => {}
        }
    }
    let mut kept = 0;
    for id in remap.iter_mut().filter(|id| **id != GONE) {
        *id = kept;
        kept += 1;
    }
    let new = |b: BlockId| BlockId(remap[b.0 as usize]);

    let mut blocks = Vec::with_capacity(kept as usize);
    for (i, slot) in by_id.iter_mut().enumerate() {
        if remap[i] == GONE {
            continue;
        }
        let mut b = slot.take().expect("reachable block must exist");
        b.id = new(b.id);
        match &mut b.term {
            Terminator::Jump(t) => *t = new(*t),
            Terminator::Branch {
                then_bb, else_bb, ..
            } => {
                *then_bb = new(*then_bb);
                *else_bb = new(*else_bb);
            }
            Terminator::Ret(_) => {}
        }
        blocks.push(b);
    }
    (blocks, new(exit))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower_src(src: &str) -> Program {
        compile(src).unwrap()
    }

    #[test]
    fn straight_line_lowers_to_two_blocks() {
        let p = lower_src("fn main() { let x = 1; let y = x + 1; }");
        let f = p.func(p.main);
        assert_eq!(f.blocks.len(), 2, "body + landing pad");
        assert_eq!(f.entry, BlockId(0));
        assert!(matches!(
            f.block(f.exit).term,
            Terminator::Ret(Some(Expr::Var(_)))
        ));
    }

    #[test]
    fn if_lowers_to_diamond() {
        let p = lower_src(
            "fn main() { let x = 1; if x > 0 { let y = 2; } else { let z = 3; } let w = 4; }",
        );
        let f = p.func(p.main);
        // entry, then, else, join, exit
        assert_eq!(f.blocks.len(), 5);
        let entry = f.block(f.entry);
        match &entry.term {
            Terminator::Branch {
                then_bb, else_bb, ..
            } => assert_ne!(then_bb, else_bb),
            other => panic!("expected branch, got {other:?}"),
        }
    }

    #[test]
    fn if_without_else_branches_to_join() {
        let p = lower_src("fn main() { let x = 1; if x > 0 { let y = 2; } let w = 4; }");
        let f = p.func(p.main);
        // entry, then, join, exit — unused reserved else block pruned.
        assert_eq!(f.blocks.len(), 4);
    }

    #[test]
    fn repeat_creates_back_edge() {
        let p = lower_src("sensor s; fn main() { repeat 3 { let v = in(s); } }");
        let f = p.func(p.main);
        let mut has_back_edge = false;
        for b in &f.blocks {
            for succ in b.term.successors() {
                if succ.0 <= b.id.0 {
                    has_back_edge = true;
                }
            }
        }
        assert!(has_back_edge, "repeat must lower to a loop");
    }

    #[test]
    fn while_creates_back_edge_with_live_condition() {
        let p = lower_src("nv g = 3; fn main() { while g > 0 { g = g - 1; } out(log, g); }");
        let f = p.func(p.main);
        let mut has_back_edge = false;
        let mut cond_on_g = false;
        for b in &f.blocks {
            for succ in b.term.successors() {
                if succ.0 <= b.id.0 {
                    has_back_edge = true;
                }
            }
            if let Terminator::Branch { cond, .. } = &b.term {
                cond_on_g = cond_on_g || format!("{cond:?}").contains("\"g\"");
            }
        }
        assert!(has_back_edge, "while must lower to a loop");
        assert!(cond_on_g, "the condition re-evaluates `g` each iteration");
    }

    #[test]
    fn while_body_scope_is_popped() {
        // A binding inside the loop body is a different variable from a
        // same-named binding after it.
        let p = lower_src(
            "nv g = 1; fn main() { while g > 0 { let t = 1; g = 0; } let t = 5; out(log, t); }",
        );
        let f = p.func(p.main);
        let binds: Vec<String> = f
            .iter_insts()
            .filter_map(|(_, i)| match &i.op {
                Op::Bind { var, .. } => Some(var.clone()),
                _ => None,
            })
            .filter(|v| v.starts_with('t'))
            .collect();
        assert_eq!(binds.len(), 2);
        assert_ne!(binds[0], binds[1], "loop-body binding must not leak");
    }

    #[test]
    fn shadowed_lets_get_unique_names() {
        let p = lower_src("fn main() { let x = 1; let x = 2; let y = x; }");
        let f = p.func(p.main);
        let binds: Vec<_> = f
            .iter_insts()
            .filter_map(|(_, i)| match &i.op {
                Op::Bind { var, .. } => Some(var.clone()),
                _ => None,
            })
            .collect();
        // $ret, x, x$1, y
        assert_eq!(binds.len(), 4);
        assert!(binds.contains(&"x".to_string()));
        assert!(binds.contains(&"x$1".to_string()));
        // `y`'s initializer must reference the shadowing definition.
        let y_src = f
            .iter_insts()
            .find_map(|(_, i)| match &i.op {
                Op::Bind { var, src } if var == "y" => Some(src.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(y_src, Expr::Var("x$1".into()));
    }

    #[test]
    fn scoped_shadowing_does_not_leak() {
        let p = lower_src("fn main() { let x = 1; if x > 0 { let x = 2; let a = x; } let b = x; }");
        let f = p.func(p.main);
        let b_src = f
            .iter_insts()
            .find_map(|(_, i)| match &i.op {
                Op::Bind { var, src } if var == "b" => Some(src.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(b_src, Expr::Var("x".into()), "outer x visible after if");
        let a_src = f
            .iter_insts()
            .find_map(|(_, i)| match &i.op {
                Op::Bind { var, src } if var == "a" => Some(src.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(a_src, Expr::Var("x$1".into()), "inner x shadows");
    }

    #[test]
    fn return_routes_through_landing_pad() {
        let p = lower_src("fn f() { return 7; } fn main() { let x = f(); }");
        let f = p.func(p.func_by_name("f").unwrap());
        let rets = f
            .blocks
            .iter()
            .filter(|b| matches!(b.term, Terminator::Ret(_)))
            .count();
        assert_eq!(rets, 1, "exactly one Ret (the landing pad)");
        // The return value is staged through the $ret slot.
        let has_ret_assign = f.iter_insts().any(|(_, i)| {
            matches!(&i.op, Op::Assign { place: Place::Var(v), src } if v == RET_SLOT && *src == Expr::Int(7))
        });
        assert!(has_ret_assign);
    }

    #[test]
    fn multiple_returns_share_landing_pad() {
        let p = lower_src(
            "fn f(v) { if v > 0 { return 1; } else { return 2; } } fn main() { let x = f(3); }",
        );
        let f = p.func(p.func_by_name("f").unwrap());
        let rets = f
            .blocks
            .iter()
            .filter(|b| matches!(b.term, Terminator::Ret(_)))
            .count();
        assert_eq!(rets, 1);
        // Exit must post-dominate: both return paths jump to it.
        let jumps_to_exit = f
            .blocks
            .iter()
            .filter(|b| b.term.successors().contains(&f.exit))
            .count();
        assert!(jumps_to_exit >= 2);
    }

    #[test]
    fn code_after_return_is_pruned() {
        let p = lower_src("fn main() { return 1; let x = 2; }");
        let f = p.func(p.main);
        let has_x = f
            .iter_insts()
            .any(|(_, i)| matches!(&i.op, Op::Bind { var, .. } if var == "x"));
        assert!(!has_x, "unreachable bind must be pruned");
    }

    #[test]
    fn atomic_emits_matched_start_end() {
        let p = lower_src("fn main() { atomic { let x = 1; } atomic { let y = 2; } }");
        let f = p.func(p.main);
        let mut starts = vec![];
        let mut ends = vec![];
        for (_, i) in f.iter_insts() {
            match &i.op {
                Op::AtomStart { region } => starts.push(*region),
                Op::AtomEnd { region } => ends.push(*region),
                _ => {}
            }
        }
        assert_eq!(starts.len(), 2);
        assert_eq!(starts, ends);
        assert_ne!(starts[0], starts[1], "regions get distinct ids");
    }

    #[test]
    fn block_ids_are_dense_after_pruning() {
        let p = lower_src("fn main() { let x = 1; if x > 0 { return 1; } else { return 2; } }");
        let f = p.func(p.main);
        for (i, b) in f.blocks.iter().enumerate() {
            assert_eq!(b.id.0 as usize, i);
        }
    }

    #[test]
    fn labels_are_unique_within_function() {
        let p = lower_src(
            "sensor s; fn main() { let x = in(s); if x > 0 { out(log, x); } repeat 2 { let q = in(s); } }",
        );
        let f = p.func(p.main);
        let mut labels: Vec<u32> = f
            .blocks
            .iter()
            .flat_map(|b| {
                b.instrs
                    .iter()
                    .map(|i| i.label.0)
                    .chain(std::iter::once(b.term_label.0))
            })
            .collect();
        let n = labels.len();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), n);
    }

    #[test]
    fn rejects_unknown_callee() {
        assert!(compile("fn main() { nope(); }").is_err());
    }

    #[test]
    fn rejects_duplicate_function() {
        assert!(compile("fn main() {} fn main() {}").is_err());
    }

    #[test]
    fn rejects_missing_main() {
        assert!(compile("fn helper() {}").is_err());
    }
}
