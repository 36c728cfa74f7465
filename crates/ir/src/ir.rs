//! The lowered intermediate representation: functions of basic blocks of
//! labeled instructions.
//!
//! The paper's analyses identify instructions by `(function, label)` pairs
//! and reason over basic-block CFGs with dominator queries — the same shape
//! LLVM IR gave the original implementation. Lowering (see
//! [`mod@crate::lower`]) alpha-renames locals so every variable name is unique
//! within its function, which makes the may-alias set of every location a
//! singleton, exactly the simplification §5.2 of the paper credits to
//! Rust's ownership discipline.

use crate::ast::{Arg, Expr, Ident};
use crate::span::Span;
use std::collections::HashMap;
use std::fmt;

/// Identifies a function within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// Identifies a basic block within a [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// A function-unique instruction label — the paper's `ℓ`.
///
/// Labels are stable across region insertion: inserting `startatom` /
/// `endatom` instructions allocates new labels without renumbering
/// existing ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Label(pub u32);

/// Identifies an atomic region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

/// A globally-unique instruction reference — the paper's `(f, ℓ)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstrRef {
    /// The containing function.
    pub func: FuncId,
    /// The instruction's label within that function.
    pub label: Label,
}

impl fmt::Display for InstrRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(f{}, l{})", self.func.0, self.label.0)
    }
}

/// The kind of a timing annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnnotKind {
    /// `Fresh(x)` — §4.2 freshness constraint.
    Fresh,
    /// `Consistent(x, id)` — §4.2 temporal-consistency constraint; all
    /// variables sharing an id form one consistent set.
    Consistent(u32),
    /// `@bound k` on a `while` loop: a declared trip count for the
    /// forward-progress analysis. Not a timing policy — it names no
    /// variable (the carrier ident is a `$bound` placeholder), declares
    /// nothing to the policy builder, and is skipped by every
    /// taint/liveness consumer. It lives in the loop's header block so
    /// the bound recovery can read it off the natural loop.
    Bound(u64),
}

/// A storage destination for an assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Place {
    /// A scalar variable (local or non-volatile global).
    Var(Ident),
    /// An element of a global array, `a[e]`.
    Index(Ident, Expr),
    /// A store through a reference parameter, `*x`.
    Deref(Ident),
}

impl Place {
    /// The variable that names the stored-to location (array base for
    /// indexed stores, the reference itself for deref stores).
    pub fn base(&self) -> &Ident {
        match self {
            Place::Var(x) | Place::Index(x, _) | Place::Deref(x) => x,
        }
    }
}

/// An IR operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// No-op.
    Skip,
    /// Introduce a new local `var` with value `src` (`let x = e`).
    Bind {
        /// The (function-unique) local being introduced.
        var: Ident,
        /// Its initializer.
        src: Expr,
    },
    /// Store `src` into an existing location.
    Assign {
        /// Where to store.
        place: Place,
        /// What to store.
        src: Expr,
    },
    /// Input operation `let var = IN(sensor)` — the paper's `IN()`.
    Input {
        /// The local receiving the sample.
        var: Ident,
        /// The sensor channel sampled.
        sensor: Ident,
    },
    /// Call `dst = callee(args)`; `dst` is `None` for effect-only calls.
    Call {
        /// Local receiving the return value, if any.
        dst: Option<Ident>,
        /// The callee.
        callee: FuncId,
        /// Arguments (by value or by mutable reference).
        args: Vec<Arg>,
    },
    /// Output operation `out(channel, args)`.
    Output {
        /// The output channel (uart, radio, alarm, ...).
        channel: Ident,
        /// Values written.
        args: Vec<Expr>,
    },
    /// A timing annotation on `var`. Annotations are analysis markers:
    /// the transform erases them after building policies (§6.1).
    Annot {
        /// Which constraint.
        kind: AnnotKind,
        /// The constrained variable.
        var: Ident,
    },
    /// `startatom(region, ω)` — enter an atomic region.
    AtomStart {
        /// Region identifier.
        region: RegionId,
    },
    /// `endatom` — leave an atomic region.
    AtomEnd {
        /// Region identifier (matches the corresponding start).
        region: RegionId,
    },
}

impl Op {
    /// The variable defined by this operation, if any.
    pub fn def(&self) -> Option<&Ident> {
        match self {
            Op::Bind { var, .. } | Op::Input { var, .. } => Some(var),
            Op::Assign {
                place: Place::Var(x),
                ..
            } => Some(x),
            Op::Call { dst, .. } => dst.as_ref(),
            _ => None,
        }
    }

    /// True for input operations.
    pub fn is_input(&self) -> bool {
        matches!(self, Op::Input { .. })
    }
}

/// A labeled instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inst {
    /// Function-unique label.
    pub label: Label,
    /// The operation.
    pub op: Op,
    /// Source span of the statement this instruction was lowered from.
    /// Synthesized instructions (return-slot init, loop counters,
    /// inferred region markers) carry the span of the construct that
    /// caused them. Programs lowered from parsed source never have an
    /// empty span (see `crate::validate::validate_spans`); programs
    /// assembled by hand may use the empty default.
    pub span: Span,
}

impl Inst {
    /// An instruction with no source span (hand/test construction).
    pub fn new(label: Label, op: Op) -> Self {
        Inst {
            label,
            op,
            span: Span::default(),
        }
    }
}

/// A basic-block terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way conditional branch.
    Branch {
        /// Branch condition (a *use* of its variables, relevant to
        /// freshness policies).
        cond: Expr,
        /// Target when `cond` is true.
        then_bb: BlockId,
        /// Target when `cond` is false.
        else_bb: BlockId,
    },
    /// Function return. All `return` statements funnel through the
    /// function's landing-pad block (§6.2), whose terminator this is.
    Ret(Option<Expr>),
}

impl Terminator {
    /// Successor blocks of this terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(b) => vec![*b],
            Terminator::Branch {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            Terminator::Ret(_) => vec![],
        }
    }
}

/// A basic block: straight-line instructions plus a labeled terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The block's id (its index in [`Function::blocks`]).
    pub id: BlockId,
    /// Straight-line instructions.
    pub instrs: Vec<Inst>,
    /// The terminator.
    pub term: Terminator,
    /// Label of the terminator (terminators use variables, so policies
    /// may reference them).
    pub term_label: Label,
    /// Source span of the terminator (the `if`/`while` statement for
    /// branches, the enclosing statement for fall-through jumps, the
    /// function declaration for the landing-pad return). Empty for
    /// hand-made programs, like [`Inst::span`].
    pub term_span: Span,
}

/// A function parameter in the IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrParam {
    /// Parameter name.
    pub name: Ident,
    /// True for `&x` mutable-reference parameters.
    pub by_ref: bool,
}

/// A lowered function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// This function's id within the program.
    pub id: FuncId,
    /// Source name.
    pub name: Ident,
    /// Parameters.
    pub params: Vec<IrParam>,
    /// Basic blocks, indexed by [`BlockId`].
    pub blocks: Vec<Block>,
    /// Entry block.
    pub entry: BlockId,
    /// Exit (return landing-pad) block; post-dominates every path.
    pub exit: BlockId,
    /// Names of locals introduced by `Bind`/`Input` ops (after renaming).
    pub locals: Vec<Ident>,
    pub(crate) next_label: u32,
}

impl Function {
    /// Allocates a fresh instruction label.
    pub fn fresh_label(&mut self) -> Label {
        let l = Label(self.next_label);
        self.next_label += 1;
        l
    }

    /// The block with id `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn block(&self, b: BlockId) -> &Block {
        &self.blocks[b.0 as usize]
    }

    /// Mutable access to block `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn block_mut(&mut self, b: BlockId) -> &mut Block {
        &mut self.blocks[b.0 as usize]
    }

    /// Finds the location `(block, index)` of the instruction labeled `l`.
    ///
    /// The terminator of a block is addressed with `index ==
    /// block.instrs.len()`.
    pub fn find_label(&self, l: Label) -> Option<(BlockId, usize)> {
        for b in &self.blocks {
            if b.term_label == l {
                return Some((b.id, b.instrs.len()));
            }
            for (i, inst) in b.instrs.iter().enumerate() {
                if inst.label == l {
                    return Some((b.id, i));
                }
            }
        }
        None
    }

    /// Returns the instruction labeled `l`, or `None` if `l` names the
    /// terminator or does not exist.
    pub fn inst(&self, l: Label) -> Option<&Inst> {
        let (b, i) = self.find_label(l)?;
        self.block(b).instrs.get(i)
    }

    /// The source span of the instruction *or terminator* labeled `l`.
    pub fn span_of(&self, l: Label) -> Option<Span> {
        let (b, i) = self.find_label(l)?;
        let blk = self.block(b);
        Some(match blk.instrs.get(i) {
            Some(inst) => inst.span,
            None => blk.term_span,
        })
    }

    /// Iterates over every instruction in the function (excluding
    /// terminators), in block order.
    pub fn iter_insts(&self) -> impl Iterator<Item = (BlockId, &Inst)> {
        self.blocks
            .iter()
            .flat_map(|b| b.instrs.iter().map(move |i| (b.id, i)))
    }

    /// True when `name` is declared by this function — a lowered local
    /// (alpha-renamed, so unique program-wide) or a parameter. Writes to
    /// a declared name stay volatile; anything else is non-volatile.
    /// The compiled execution backend and the WCET analysis both key
    /// their static local/global classification off this.
    pub fn declares(&self, name: &str) -> bool {
        self.locals.iter().any(|l| l == name) || self.params.iter().any(|p| p.name == name)
    }

    /// True when `name` is a by-mutable-reference parameter of this
    /// function (reads and writes go through the caller's binding).
    pub fn is_by_ref_param(&self, name: &str) -> bool {
        self.params.iter().any(|p| p.name == name && p.by_ref)
    }

    /// All `(label, callee)` call sites in this function.
    pub fn call_sites(&self) -> Vec<(Label, FuncId)> {
        let mut out = Vec::new();
        for (_, inst) in self.iter_insts() {
            if let Op::Call { callee, .. } = &inst.op {
                out.push((inst.label, *callee));
            }
        }
        out
    }
}

/// A non-volatile global in the IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrGlobal {
    /// Global name.
    pub name: Ident,
    /// `Some(len)` for arrays.
    pub array_len: Option<usize>,
    /// Initial scalar value (arrays zero-fill).
    pub init: i64,
}

/// A whole lowered program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Functions, indexed by [`FuncId`].
    pub funcs: Vec<Function>,
    /// Non-volatile globals.
    pub globals: Vec<IrGlobal>,
    /// Declared sensor channels.
    pub sensors: Vec<Ident>,
    /// The entry function (`main`).
    pub main: FuncId,
    name_to_id: HashMap<Ident, FuncId>,
    pub(crate) next_region: u32,
}

impl Program {
    /// Assembles a program from hand-made parts (unit tests).
    #[cfg(test)]
    pub(crate) fn from_parts(
        funcs: Vec<Function>,
        globals: Vec<IrGlobal>,
        sensors: Vec<Ident>,
        main: FuncId,
        next_region: u32,
    ) -> Self {
        let name_to_id = funcs.iter().map(|f| (f.name.clone(), f.id)).collect();
        Self::with_index(funcs, globals, sensors, main, next_region, name_to_id)
    }

    /// Assembles a program from lowered parts, with the name → id index
    /// already built (lowering builds it to resolve calls).
    pub(crate) fn with_index(
        funcs: Vec<Function>,
        globals: Vec<IrGlobal>,
        sensors: Vec<Ident>,
        main: FuncId,
        next_region: u32,
        name_to_id: HashMap<Ident, FuncId>,
    ) -> Self {
        Program {
            funcs,
            globals,
            sensors,
            main,
            name_to_id,
            next_region,
        }
    }

    /// The function with id `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    pub fn func(&self, f: FuncId) -> &Function {
        &self.funcs[f.0 as usize]
    }

    /// Mutable access to function `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    pub fn func_mut(&mut self, f: FuncId) -> &mut Function {
        &mut self.funcs[f.0 as usize]
    }

    /// Looks up a function id by source name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.name_to_id.get(name).copied()
    }

    /// Looks up a global by name.
    pub fn global(&self, name: &str) -> Option<&IrGlobal> {
        self.globals.iter().find(|g| g.name == name)
    }

    /// True if `name` is a declared non-volatile global.
    pub fn is_global(&self, name: &str) -> bool {
        self.global(name).is_some()
    }

    /// Stable slot number of a scalar global: its position among the
    /// *scalar* globals in declaration order. Slot numbering is the
    /// contract between the IR and slot-indexed non-volatile stores:
    /// `ocelot-runtime`'s non-volatile layout gives the scalar globals
    /// of a validated program, which declares each name once, the same
    /// numbers (and numbers the cells of unbound locals after them),
    /// letting a compiled backend pre-resolve global accesses to direct
    /// indices.
    pub fn scalar_slot(&self, name: &str) -> Option<usize> {
        self.globals
            .iter()
            .filter(|g| g.array_len.is_none())
            .position(|g| g.name == name)
    }

    /// Stable slot number of an array global: its position among the
    /// *array* globals in declaration order (see
    /// [`Program::scalar_slot`] for the numbering contract).
    pub fn array_slot(&self, name: &str) -> Option<usize> {
        self.globals
            .iter()
            .filter(|g| g.array_len.is_some())
            .position(|g| g.name == name)
    }

    /// True if `name` is a declared sensor channel.
    pub(crate) fn is_sensor(&self, name: &str) -> bool {
        self.sensors.iter().any(|s| s == name)
    }

    /// Allocates a fresh atomic-region id.
    pub fn fresh_region(&mut self) -> RegionId {
        let r = RegionId(self.next_region);
        self.next_region += 1;
        r
    }

    /// Resolves the instruction behind a global reference.
    pub fn inst(&self, r: InstrRef) -> Option<&Inst> {
        self.funcs.get(r.func.0 as usize)?.inst(r.label)
    }

    /// The source span behind a global instruction reference (works for
    /// terminator labels too).
    pub fn span_of(&self, r: InstrRef) -> Option<Span> {
        self.funcs.get(r.func.0 as usize)?.span_of(r.label)
    }

    /// All annotation instructions in the program, as
    /// `(instr-ref, kind, variable)`.
    pub fn annotations(&self) -> Vec<(InstrRef, AnnotKind, Ident)> {
        let mut out = Vec::new();
        for f in &self.funcs {
            for (_, inst) in f.iter_insts() {
                if let Op::Annot { kind, var } = &inst.op {
                    out.push((
                        InstrRef {
                            func: f.id,
                            label: inst.label,
                        },
                        *kind,
                        var.clone(),
                    ));
                }
            }
        }
        out
    }

    /// All input operations in the program, as `(instr-ref, sensor)`.
    pub fn input_ops(&self) -> Vec<(InstrRef, Ident)> {
        let mut out = Vec::new();
        for f in &self.funcs {
            for (_, inst) in f.iter_insts() {
                if let Op::Input { sensor, .. } = &inst.op {
                    out.push((
                        InstrRef {
                            func: f.id,
                            label: inst.label,
                        },
                        sensor.clone(),
                    ));
                }
            }
        }
        out
    }

    /// Removes all `Annot` instructions (the transform does this after
    /// building policies, §6.1).
    pub fn erase_annotations(&mut self) {
        for f in &mut self.funcs {
            for b in &mut f.blocks {
                b.instrs.retain(|i| !matches!(i.op, Op::Annot { .. }));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_function() -> Function {
        // entry: l0: bind x = 1; term l1: jump exit
        // exit:  term l2: ret x
        Function {
            id: FuncId(0),
            name: "main".into(),
            params: vec![],
            blocks: vec![
                Block {
                    id: BlockId(0),
                    instrs: vec![Inst::new(
                        Label(0),
                        Op::Bind {
                            var: "x".into(),
                            src: Expr::Int(1),
                        },
                    )],
                    term: Terminator::Jump(BlockId(1)),
                    term_label: Label(1),
                    term_span: Span::default(),
                },
                Block {
                    id: BlockId(1),
                    instrs: vec![],
                    term: Terminator::Ret(Some(Expr::Var("x".into()))),
                    term_label: Label(2),
                    term_span: Span::default(),
                },
            ],
            entry: BlockId(0),
            exit: BlockId(1),
            locals: vec!["x".into()],
            next_label: 3,
        }
    }

    #[test]
    fn find_label_locates_instructions_and_terminators() {
        let f = mini_function();
        assert_eq!(f.find_label(Label(0)), Some((BlockId(0), 0)));
        // Terminator of block 0 is addressed one past the instrs.
        assert_eq!(f.find_label(Label(1)), Some((BlockId(0), 1)));
        assert_eq!(f.find_label(Label(2)), Some((BlockId(1), 0)));
        assert_eq!(f.find_label(Label(99)), None);
    }

    #[test]
    fn fresh_labels_are_unique() {
        let mut f = mini_function();
        let a = f.fresh_label();
        let b = f.fresh_label();
        assert_ne!(a, b);
        assert!(f.find_label(a).is_none(), "fresh labels are not yet placed");
    }

    #[test]
    fn op_def_reports_definitions() {
        assert_eq!(
            Op::Bind {
                var: "x".into(),
                src: Expr::Int(0)
            }
            .def(),
            Some(&"x".to_string())
        );
        assert_eq!(
            Op::Assign {
                place: Place::Deref("p".into()),
                src: Expr::Int(0)
            }
            .def(),
            None,
            "deref stores do not define a new local"
        );
        assert_eq!(Op::Skip.def(), None);
    }

    #[test]
    fn program_lookup_by_name() {
        let f = mini_function();
        let p = Program::from_parts(vec![f], vec![], vec![], FuncId(0), 0);
        assert_eq!(p.func_by_name("main"), Some(FuncId(0)));
        assert_eq!(p.func_by_name("nope"), None);
    }

    #[test]
    fn declares_and_by_ref_classification() {
        let mut f = mini_function();
        f.params.push(IrParam {
            name: "p".into(),
            by_ref: true,
        });
        f.params.push(IrParam {
            name: "v".into(),
            by_ref: false,
        });
        assert!(f.declares("x"), "lowered local");
        assert!(f.declares("p") && f.declares("v"), "params");
        assert!(!f.declares("g"), "unknown names are non-volatile");
        assert!(f.is_by_ref_param("p"));
        assert!(!f.is_by_ref_param("v"));
        assert!(!f.is_by_ref_param("x"));
    }

    #[test]
    fn global_slots_number_each_kind_in_declaration_order() {
        let globals = vec![
            IrGlobal {
                name: "a".into(),
                array_len: None,
                init: 0,
            },
            IrGlobal {
                name: "arr".into(),
                array_len: Some(4),
                init: 0,
            },
            IrGlobal {
                name: "b".into(),
                array_len: None,
                init: 0,
            },
        ];
        let p = Program::from_parts(vec![mini_function()], globals, vec![], FuncId(0), 0);
        assert_eq!(p.scalar_slot("a"), Some(0));
        assert_eq!(p.scalar_slot("b"), Some(1), "arrays do not shift scalars");
        assert_eq!(p.scalar_slot("arr"), None, "arrays are not scalar slots");
        assert_eq!(p.array_slot("arr"), Some(0));
        assert_eq!(p.array_slot("a"), None);
        assert_eq!(p.scalar_slot("missing"), None);
    }

    #[test]
    fn terminator_successors() {
        assert_eq!(Terminator::Jump(BlockId(3)).successors(), vec![BlockId(3)]);
        assert_eq!(Terminator::Ret(None).successors(), vec![]);
        let b = Terminator::Branch {
            cond: Expr::Bool(true),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert_eq!(b.successors(), vec![BlockId(1), BlockId(2)]);
    }

    #[test]
    fn erase_annotations_removes_only_annots() {
        let mut f = mini_function();
        let l = f.fresh_label();
        f.block_mut(BlockId(0)).instrs.push(Inst::new(
            l,
            Op::Annot {
                kind: AnnotKind::Fresh,
                var: "x".into(),
            },
        ));
        let mut p = Program::from_parts(vec![f], vec![], vec![], FuncId(0), 0);
        assert_eq!(p.annotations().len(), 1);
        p.erase_annotations();
        assert_eq!(p.annotations().len(), 0);
        assert_eq!(p.func(FuncId(0)).block(BlockId(0)).instrs.len(), 1);
    }
}
