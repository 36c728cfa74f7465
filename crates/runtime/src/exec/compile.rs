//! The compile pass: lowers a [`Program`] into pre-resolved steps.
//!
//! Compilation runs once per machine (lazily, on the first compiled
//! run) and bakes in everything the interpreter re-derives per step:
//!
//! * **operation shape** — each instruction/terminator is matched once
//!   into an [`Action`], so the hot loop never touches [`Op`] again
//!   (and never clones its expression trees);
//! * **storage resolution** — non-volatile cells and arrays become
//!   the slots of the core's [`crate::memory::NvLayout`] and frame
//!   locals become dense [`crate::memory::FrameLayouts`] slots;
//!   variable reads are classified local / by-ref / global using the
//!   IR's declaration metadata ([`ocelot_ir::Function::declares`]);
//! * **input sites** — the sensor name is pre-interned and, for sites
//!   whose enclosing call stack is statically fixed, the provenance
//!   chain is pre-resolved to an interned
//!   [`ocelot_analysis::chains::ChainId`]; only sites reachable
//!   through several call paths rebuild the chain dynamically;
//! * **call plans** — argument bindings resolve to callee slots, the
//!   return destination to a caller slot, and by-ref arguments to a
//!   pre-classified target, so a call allocates nothing but the frame;
//! * **cycle costs** — static wherever the interpreter's
//!   `Machine::op_cost` is state-independent, including the µs
//!   conversion (summed per instruction, so batched time advances agree
//!   with per-instruction rounding to the microsecond);
//! * **check sites** — whether the §7.3 detectors, the TICS expiry
//!   check, or fresh-use trace logging can fire here, and whether the
//!   pathological injector targets this instruction;
//! * **batches** — for every entry offset into a block, the maximal run
//!   of pure-compute steps the run loop may take without per-step
//!   supervision, plus each step's precomputed nJ draw; a segment's
//!   draws go to [`ocelot_hw::power::PowerSupply::consume_run`] as one
//!   slice, bit-identical to the per-step draws. Since locals are
//!   slot-addressed, a run no longer stops at the block edge: it
//!   follows unconditional jumps into the batchable prefix of the
//!   target block (cycle-guarded), so straight-line code split across
//!   blocks still batches as one run.
//!
//! The classification is total for the programs the runtime runs,
//! which passed [`ocelot_ir::validate()`]: every name a function reads or
//! stores is a declared local or parameter of it or a declared global,
//! every binding site binds a declared local, every dereference goes
//! through a by-ref parameter, every indexed access names a declared
//! array, and every call matches its callee's parameter kinds. What
//! stays dynamic is the paper model's "no block scoping" case: whether
//! a local is bound yet. A store to a local that may still be unbound
//! ([`Action::AssignDyn`]) and an unbound local's read
//! ([`CExpr::Local`]) fall back to the non-volatile cell of its name,
//! whose slot is resolved here too.

use crate::machine::{eval_binop, Machine};
use ocelot_analysis::chains::ChainId;
use ocelot_analysis::dom::{point_dominates, DomTree, Point};
use ocelot_analysis::FuncSsa;
use ocelot_hw::energy::{Facts, Priced};
use ocelot_ir::ast::{Arg, BinOp, Expr, UnOp};
use ocelot_ir::cfg::Cfg;
use ocelot_ir::{BlockId, FuncId, Function, InstrRef, Label, Op, Place, RegionId, Terminator};
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::memory::ParamBind;

/// A program lowered to pre-resolved steps, indexed `[func][block]`.
pub(crate) struct CompiledProgram<'p> {
    /// One entry per [`Program::funcs`] entry, same order.
    pub(crate) funcs: Vec<CompiledFunc<'p>>,
}

/// One function's compiled blocks, indexed by [`BlockId`].
pub(crate) struct CompiledFunc<'p> {
    /// One entry per [`Function::blocks`] entry, same order.
    pub(crate) blocks: Vec<CompiledBlock<'p>>,
}

/// One basic block: its instructions plus the terminator as the final
/// step, and per-offset batch metadata.
pub(crate) struct CompiledBlock<'p> {
    /// `instrs.len() + 1` steps; the last is the terminator.
    pub(crate) steps: Vec<Step<'p>>,
    /// `nj[i]` is step `i`'s energy draw, `cycles_to_nj` of its static
    /// cycles (0 for a dynamic cost, which never batches): the batch
    /// path hands these slices to
    /// [`ocelot_hw::power::PowerSupply::consume_run`], bit-identical to
    /// the per-step draw.
    pub(crate) nj: Vec<f64>,
    /// `batches[i]` describes the maximal batchable run starting at
    /// step `i` (`len == 0`: step `i` must go through the checked
    /// per-step path).
    pub(crate) batches: Vec<Batch>,
}

/// Step/cycle/time totals of a batchable run — the quantities charged
/// in one draw. There is exactly one summing site ([`RunTotals::add`]),
/// shared by intra-block absorption, cross-block span building, and
/// span attachment, so a future cost bucket cannot be summed in some
/// combinations and silently dropped in others.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RunTotals {
    /// Total steps in the run (0 = not batchable here).
    pub(crate) len: u32,
    /// Total cycles, charged in one draw.
    pub(crate) cycles: u64,
    /// Total µs — the *sum of per-instruction* µs conversions, so
    /// batched wall-clock time matches the interpreter's per-step
    /// round-up exactly.
    pub(crate) us: u64,
    /// Cycles booked to the `compute` breakdown category.
    pub(crate) compute_cycles: u64,
    /// Cycles booked to the `output` breakdown category.
    pub(crate) output_cycles: u64,
}

impl RunTotals {
    /// Folds another run's totals into this one.
    fn add(&mut self, o: &RunTotals) {
        self.len += o.len;
        self.cycles += o.cycles;
        self.us += o.us;
        self.compute_cycles += o.compute_cycles;
        self.output_cycles += o.output_cycles;
    }
}

/// Precomputed totals of a maximal pure-compute run, possibly spanning
/// unconditional jumps into other blocks of the same function.
#[derive(Debug, Clone, Default)]
pub(crate) struct Batch {
    /// Charged totals across all segments.
    pub(crate) totals: RunTotals,
    /// Steps executed in the starting block (`cont` holds the rest).
    pub(crate) head: u32,
    /// Continuation segments after each followed jump: `(block, steps
    /// from its offset 0)`.
    pub(crate) cont: Vec<(BlockId, u32)>,
}

/// One pre-resolved instruction or terminator.
pub(crate) struct Step<'p> {
    /// The paper's `(f, ℓ)` site, pre-built.
    pub(crate) iref: InstrRef,
    /// Cycle cost: pre-computed, or state-dependent.
    pub(crate) cost: Cost<'p>,
    /// Which breakdown counter the cycles land in.
    pub(crate) cat: Cat,
    /// True when detector checks, expiry checks, or fresh-use logging
    /// can fire at this site (pre-bound from the policy-derived maps).
    pub(crate) checked: bool,
    /// True when the pathological injector targets this site.
    pub(crate) inject: bool,
    /// What the step does.
    pub(crate) action: Action<'p>,
}

/// A step's cycle cost.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Cost<'p> {
    /// State-independent: cycles and their µs conversion, fixed at
    /// compile time.
    Static {
        /// Cycles charged.
        cycles: u64,
        /// `cycles_to_us(cycles)`, precomputed.
        us: u64,
    },
    /// Depends on machine state (`startatom` checkpoints the live
    /// stack; stores through references depend on the binding): priced
    /// per execution by `Machine::op_cost`, as the interpreter does.
    Dynamic(&'p Op),
}

/// Breakdown category of a step's cycles (mirrors the interpreter's
/// per-work-item accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cat {
    /// ALU, branches, calls, checkpoints' bookkeeping-free cousins.
    Compute,
    /// Sensor sampling.
    Input,
    /// Output operations.
    Output,
    /// Region-entry checkpointing (`startatom`).
    Checkpoint,
}

/// How one by-ref argument resolves, classified at compile time.
pub(crate) enum RefArgPlan<'p> {
    /// The argument is itself a by-ref parameter of the caller:
    /// forward its incoming target (dynamic probe).
    Forward(&'p str),
    /// A declared caller local: its slot when bound at call time,
    /// otherwise the non-volatile cell of its name (the paper model's
    /// unbound-local fallback).
    LocalOrGlobal {
        /// Caller-frame slot.
        slot: u32,
        /// Fallback non-volatile cell.
        nv: usize,
    },
    /// The non-volatile cell of a global scalar the caller does not
    /// shadow.
    Global(usize),
}

/// One pre-resolved argument binding of a call.
pub(crate) enum ArgBind<'p> {
    /// A by-value argument into a callee slot.
    Value {
        /// Callee-frame slot.
        slot: u32,
        /// Argument expression.
        src: CExpr<'p>,
    },
    /// A by-ref argument bound into the callee's reference map.
    Ref {
        /// Callee parameter name (shared, pre-interned).
        param: Arc<str>,
        /// Pre-classified target.
        plan: RefArgPlan<'p>,
    },
}

/// Everything a call step needs, resolved once.
pub(crate) struct CallPlan<'p> {
    /// Callee.
    pub(crate) callee: FuncId,
    /// Callee entry block.
    pub(crate) entry: BlockId,
    /// Callee local slot count.
    pub(crate) nslots: u32,
    /// Caller-frame return destination slot.
    pub(crate) ret_dst: Option<u32>,
    /// Argument bindings, in parameter order.
    pub(crate) binds: Vec<ArgBind<'p>>,
}

/// A pre-matched operation with pre-resolved storage.
pub(crate) enum Action<'p> {
    /// `skip` and (unerased) annotations.
    Skip,
    /// `let var = src`.
    Bind {
        /// The local's slot.
        dst: u32,
        /// Its initializer.
        src: CExpr<'p>,
    },
    /// Store to a declared local or value parameter with a dominating
    /// binding, or to a reclassified always-bound local, whose store
    /// binds the slot when it is unbound instead of falling back to the
    /// non-volatile cell (no read can observe the difference — every
    /// read is dominated by a write).
    AssignLocal {
        /// The volatile destination slot.
        slot: u32,
        /// Stored value.
        src: CExpr<'p>,
    },
    /// Store to a declared scalar global, slot-resolved.
    AssignGlobal {
        /// Non-volatile scalar slot.
        slot: usize,
        /// Stored value.
        src: CExpr<'p>,
    },
    /// Store to an array cell.
    AssignIndex {
        /// Non-volatile array slot.
        slot: usize,
        /// Cell index expression.
        idx: CExpr<'p>,
        /// Stored value.
        src: CExpr<'p>,
    },
    /// Store through a by-reference parameter (`*x = e`).
    AssignDeref {
        /// The reference parameter.
        var: &'p str,
        /// Stored value.
        src: CExpr<'p>,
    },
    /// Store to a declared local that may still be unbound here: the
    /// frame slot while it is bound, otherwise the non-volatile cell of
    /// the local's name.
    AssignDyn {
        /// The volatile slot.
        slot: u32,
        /// The non-volatile fallback cell.
        nv: usize,
        /// Stored value.
        src: CExpr<'p>,
    },
    /// `let var = IN(sensor)` — the collection core is shared with the
    /// interpreter; everything resolvable is resolved here.
    Input {
        /// Receiving local's slot.
        dst: u32,
        /// Interned sensor name (what the observation records).
        sensor_name: Arc<str>,
        /// Pre-resolved environment channel index.
        chan: Option<usize>,
        /// Pre-resolved chain for a statically-fixed call stack;
        /// `None` falls back to the dynamic rebuild.
        chain: Option<ChainId>,
    },
    /// Function call, fully pre-planned.
    Call {
        /// The plan.
        plan: CallPlan<'p>,
    },
    /// `out(channel, args)`.
    Output {
        /// Interned output channel name.
        channel: Arc<str>,
        /// Pre-lowered argument expressions.
        args: Vec<CExpr<'p>>,
    },
    /// `startatom` — delegated to the shared region-entry helper.
    AtomStart {
        /// The region entered.
        region: RegionId,
    },
    /// `endatom` — delegated to the shared commit helper.
    AtomEnd {
        /// The region ended.
        region: RegionId,
    },
    /// Unconditional jump.
    Jump(BlockId),
    /// Conditional branch.
    Branch {
        /// Branch condition.
        cond: CExpr<'p>,
        /// Target when true.
        then_bb: BlockId,
        /// Target when false.
        else_bb: BlockId,
    },
    /// Function return.
    Ret(Option<CExpr<'p>>),
}

/// An expression with variable references classified at compile time.
pub(crate) enum CExpr<'p> {
    /// Integer or boolean literal.
    Const(i64),
    /// A declared local or value parameter: read the frame slot, or
    /// the non-volatile cell of its name while the slot is unbound.
    Local {
        /// Frame slot.
        slot: u32,
        /// Non-volatile fallback cell.
        nv: usize,
    },
    /// A declared scalar global: its non-volatile slot.
    Global(usize),
    /// `*x`, or a by-reference parameter `x` read by name: both read
    /// through the target the call bound.
    Deref(&'p str),
    /// `a[idx]`.
    Index {
        /// Pre-resolved array slot.
        slot: usize,
        /// Index expression.
        idx: Box<CExpr<'p>>,
    },
    /// Binary operation.
    Binary(BinOp, Box<CExpr<'p>>, Box<CExpr<'p>>),
    /// Unary operation.
    Unary(UnOp, Box<CExpr<'p>>),
    /// `&x` in expression position (only valid in call args; evaluates
    /// to untainted 0, as in the interpreter).
    RefArg,
    /// Evaluate the inner expression *by value only* and return it with
    /// an empty dependency set. Emitted where no consumer reads the set:
    /// around every non-constant store, argument, return and output
    /// source on a stats-only core, which observes no dependency set,
    /// and around every store index, whose set the store drops. A
    /// local store of one writes its slot in place. (Branch conditions
    /// need no wrapper: the run loop always evaluates them by value.)
    PureOf(Box<CExpr<'p>>),
}

/// Wraps an expression for value-only evaluation (no-op for constants,
/// which are already dependency-free).
fn pure_of(e: CExpr<'_>) -> CExpr<'_> {
    match e {
        CExpr::Const(_) | CExpr::RefArg | CExpr::PureOf(_) => e,
        e => CExpr::PureOf(Box::new(e)),
    }
}

/// Compiles the machine's program against its detector configuration,
/// check-site map, injector target set, non-volatile layout, frame
/// layouts, chain table, and sensor interner.
pub(crate) fn compile<'p>(m: &Machine<'p>) -> CompiledProgram<'p> {
    let _span = ocelot_telemetry::span!("compile");
    let cx = Cx { m };
    CompiledProgram {
        funcs: m
            .core
            .p
            .funcs
            .iter()
            .map(|f| {
                let binds = Bindings::of(f);
                let mut blocks: Vec<CompiledBlock<'p>> =
                    f.blocks.iter().map(|b| cx.block(f, &binds, b)).collect();
                extend_batches_across_jumps(&mut blocks);
                CompiledFunc { blocks }
            })
            .collect(),
    }
}

/// Definite-assignment information for one function: where each local
/// is bound (`let`, input, call destination). The surface language has
/// no block scoping, so a local introduced inside a `repeat 0 { .. }`
/// body is *in scope* but possibly never bound at a later assignment —
/// the interpreter then charges an NV write and stores non-volatile.
/// Static local classification is licensed only when a binding site
/// dominates the store.
struct Bindings {
    dom: DomTree,
    defs: BTreeMap<String, Vec<Point>>,
}

impl Bindings {
    fn of(f: &Function) -> Self {
        let cfg = Cfg::new(f);
        let dom = DomTree::dominators(f, &cfg);
        let mut defs: BTreeMap<String, Vec<Point>> = BTreeMap::new();
        for b in &f.blocks {
            for (i, inst) in b.instrs.iter().enumerate() {
                let var = match &inst.op {
                    Op::Bind { var, .. } | Op::Input { var, .. } => Some(var),
                    Op::Call { dst: Some(d), .. } => Some(d),
                    _ => None,
                };
                if let Some(v) = var {
                    defs.entry(v.clone()).or_default().push(Point::new(b.id, i));
                }
            }
        }
        Bindings { dom, defs }
    }

    /// True when every path to `at` binds `x` first (a value parameter,
    /// or a dominating binding site).
    fn surely_bound(&self, f: &Function, x: &str, at: Point) -> bool {
        if f.params.iter().any(|p| p.name == x && !p.by_ref) {
            return true;
        }
        self.defs
            .get(x)
            .is_some_and(|ds| ds.iter().any(|d| point_dominates(&self.dom, *d, at)))
    }
}

/// Compile-time context: the machine whose pre-resolved tables the pass
/// bakes into steps.
struct Cx<'a, 'p> {
    m: &'a Machine<'p>,
}

impl<'p> Cx<'_, 'p> {
    fn block(
        &self,
        f: &'p Function,
        binds: &Bindings,
        b: &'p ocelot_ir::Block,
    ) -> CompiledBlock<'p> {
        let mut steps: Vec<Step<'p>> = b
            .instrs
            .iter()
            .enumerate()
            .map(|(i, inst)| self.instr(f, binds, Point::new(b.id, i), inst.label, &inst.op))
            .collect();
        steps.push(self.terminator(f, b.term_label, &b.term));
        let nj = steps
            .iter()
            .map(|s| match s.cost {
                Cost::Static { cycles, .. } => self.m.core.costs.cycles_to_nj(cycles),
                Cost::Dynamic(_) => 0.0,
            })
            .collect();
        let batches = intra_block_batches(&steps);
        CompiledBlock { steps, nj, batches }
    }

    fn step(
        &self,
        f: &'p Function,
        label: ocelot_ir::Label,
        cost: Cost<'p>,
        cat: Cat,
        action: Action<'p>,
    ) -> Step<'p> {
        let iref = InstrRef { func: f.id, label };
        Step {
            iref,
            cost,
            cat,
            checked: self.m.core.use_rt.contains_key(&iref),
            inject: self.m.injector_targets.contains(&iref),
            action,
        }
    }

    /// A cost fixed at compile time: `at` priced under `facts`.
    fn fixed(&self, at: Priced<'_>, facts: Facts) -> Cost<'p> {
        let cycles = self.m.core.costs.price(at, facts);
        Cost::Static {
            cycles,
            us: self.m.core.costs.cycles_to_us(cycles),
        }
    }

    /// SSA facts for `f`.
    fn facts(&self, f: &Function) -> &FuncSsa {
        &self.m.core.ssa.funcs[f.id.0 as usize]
    }

    /// `e` compiled from `f` at `label`, to be evaluated value-only on
    /// a stats-only core, which observes no dependency set. A traced
    /// core tracks every set the interpreter tracks, so there `e` is
    /// left as it is.
    fn value_src(&self, f: &'p Function, label: Label, e: &'p Expr) -> CExpr<'p> {
        let c = self.expr(f, label, e);
        if self.m.core.traced {
            c
        } else {
            pure_of(c)
        }
    }

    /// The compiled source of a store that writes a volatile slot: a
    /// dead definition shrinks to an untainted 0 (the slot write still
    /// happens, keeping binding state and checkpoint word counts
    /// identical, but the unread value's evaluation is gone); otherwise
    /// it is [`Cx::value_src`]. Only `Bind` stores and `AssignLocal`
    /// stores (surely bound, or reclassified so the store binds the
    /// slot) reach this point; an assignment to a possibly-unbound local
    /// compiles to `AssignDyn`, whose store may reach the non-volatile
    /// fallback a later run could read, and never shrinks.
    fn store_src(&self, f: &'p Function, label: Label, src: &'p Expr) -> CExpr<'p> {
        if self.facts(f).dead_defs.contains(&label) {
            return CExpr::Const(0);
        }
        self.value_src(f, label, src)
    }

    /// Classifies a by-ref argument (see [`RefArgPlan`]).
    fn ref_arg(&self, f: &'p Function, x: &'p str) -> RefArgPlan<'p> {
        if f.is_by_ref_param(x) {
            RefArgPlan::Forward(x)
        } else if let Some(slot) = self.m.core.layouts.slot(f.id, x) {
            RefArgPlan::LocalOrGlobal {
                slot,
                nv: self.m.core.nv.scalar_slot(x),
            }
        } else {
            RefArgPlan::Global(self.m.core.nv.scalar_slot(x))
        }
    }

    fn call_plan(
        &self,
        f: &'p Function,
        label: Label,
        dst: Option<&'p str>,
        callee: FuncId,
        args: &'p [Arg],
    ) -> CallPlan<'p> {
        let callee_layout = self.m.core.layouts.layout(callee);
        let ret_dst = dst.map(|d| self.m.core.layouts.local(f.id, d));
        let binds = args
            .iter()
            .zip(callee_layout.params())
            .map(|(a, bind)| match (a, bind) {
                (Arg::Value(e), ParamBind::Value(slot)) => ArgBind::Value {
                    slot: *slot,
                    src: self.value_src(f, label, e),
                },
                (Arg::Ref(x), ParamBind::Ref(name)) => ArgBind::Ref {
                    param: Arc::clone(name),
                    plan: self.ref_arg(f, x),
                },
                _ => unreachable!("validated calls match argument and parameter kinds"),
            })
            .collect();
        CallPlan {
            callee,
            entry: callee_layout.entry,
            nslots: callee_layout.len() as u32,
            ret_dst,
            binds,
        }
    }

    fn instr(
        &self,
        f: &'p Function,
        binds: &Bindings,
        at: Point,
        label: ocelot_ir::Label,
        op: &'p Op,
    ) -> Step<'p> {
        // Every cost comes from the one price function the interpreter
        // charges through; stores the compiler classifies statically
        // supply their facts here, the rest are priced per execution.
        let fixed_op = || self.fixed(Priced::Op(op), Facts::default());
        let fixed_store = |nv| self.fixed(Priced::Op(op), Facts::store(nv, false));
        let (cost, cat, action) = match op {
            Op::Skip | Op::Annot { .. } => (fixed_op(), Cat::Compute, Action::Skip),
            Op::Bind { var, src } => (
                fixed_op(),
                Cat::Compute,
                Action::Bind {
                    dst: self.m.core.layouts.local(f.id, var),
                    src: self.store_src(f, label, src),
                },
            ),
            Op::Assign { place, src } => {
                match place {
                    // Static local classification needs a dominating
                    // binding — or the reclassification proof that the
                    // local is always bound before any read (then the
                    // store itself binds the slot; the interpreter's NV
                    // fallback for in-scope-but-unbound locals was
                    // over-conservative and is fixed to match).
                    Place::Var(x)
                        if f.declares(x)
                            && (binds.surely_bound(f, x, at)
                                || self.m.core.reclass[f.id.0 as usize].contains(x.as_str())) =>
                    {
                        (
                            fixed_store(false),
                            Cat::Compute,
                            Action::AssignLocal {
                                slot: self.m.core.layouts.local(f.id, x),
                                src: self.store_src(f, label, src),
                            },
                        )
                    }
                    // A possibly-unbound local: run it dynamically.
                    Place::Var(x) if f.declares(x) => (
                        Cost::Dynamic(op),
                        Cat::Compute,
                        Action::AssignDyn {
                            slot: self.m.core.layouts.local(f.id, x),
                            nv: self.m.core.nv.scalar_slot(x),
                            src: self.value_src(f, label, src),
                        },
                    ),
                    Place::Var(x) => (
                        fixed_store(true),
                        Cat::Compute,
                        Action::AssignGlobal {
                            slot: self.m.core.nv.scalar_slot(x),
                            src: self.value_src(f, label, src),
                        },
                    ),
                    Place::Index(a, i) => (
                        fixed_store(true),
                        Cat::Compute,
                        Action::AssignIndex {
                            slot: self.m.core.nv.array_slot(a),
                            // A store drops its index's dependency set
                            // (only the value is consumed).
                            idx: pure_of(self.expr(f, label, i)),
                            src: self.value_src(f, label, src),
                        },
                    ),
                    Place::Deref(x) => (
                        Cost::Dynamic(op),
                        Cat::Compute,
                        Action::AssignDeref {
                            var: x,
                            src: self.value_src(f, label, src),
                        },
                    ),
                }
            }
            Op::Input { var, sensor } => {
                let iref = InstrRef { func: f.id, label };
                let rt = &self.m.core.sensor_rt[sensor.as_str()];
                (
                    fixed_op(),
                    Cat::Input,
                    Action::Input {
                        dst: self.m.core.layouts.local(f.id, var),
                        sensor_name: Arc::clone(&rt.name),
                        chan: rt.chan,
                        chain: self.m.core.static_chain_of.get(&iref).copied(),
                    },
                )
            }
            Op::Call { dst, callee, args } => (
                fixed_op(),
                Cat::Compute,
                Action::Call {
                    plan: self.call_plan(f, label, dst.as_deref(), *callee, args),
                },
            ),
            Op::Output { channel, args } => (
                fixed_op(),
                Cat::Output,
                Action::Output {
                    channel: Arc::clone(&self.m.core.channel_names[channel.as_str()]),
                    args: args.iter().map(|e| self.value_src(f, label, e)).collect(),
                },
            ),
            Op::AtomStart { region } => (
                Cost::Dynamic(op),
                Cat::Checkpoint,
                Action::AtomStart { region: *region },
            ),
            Op::AtomEnd { region } => (
                fixed_op(),
                Cat::Compute,
                Action::AtomEnd { region: *region },
            ),
        };
        self.step(f, label, cost, cat, action)
    }

    fn terminator(&self, f: &'p Function, label: ocelot_ir::Label, t: &'p Terminator) -> Step<'p> {
        // The cost is derived from the *original* terminator, so a
        // folded constant branch still charges Branch cycles — only the
        // host-side condition evaluation disappears.
        let cost = self.fixed(Priced::Term(t), Facts::default());
        let action = match t {
            Terminator::Jump(b) => Action::Jump(*b),
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                let c = self.expr(f, label, cond);
                if let CExpr::Const(k) = &c {
                    Action::Jump(if *k != 0 { *then_bb } else { *else_bb })
                } else {
                    Action::Branch {
                        // Evaluated by value: the condition's
                        // dependency set is never observed.
                        cond: c,
                        then_bb: *then_bb,
                        else_bb: *else_bb,
                    }
                }
            }
            Terminator::Ret(e) => Action::Ret(e.as_ref().map(|e| self.value_src(f, label, e))),
        };
        self.step(f, label, cost, Cat::Compute, action)
    }

    fn expr(&self, f: &'p Function, label: Label, e: &'p Expr) -> CExpr<'p> {
        match e {
            Expr::Int(n) => CExpr::Const(*n),
            Expr::Bool(b) => CExpr::Const(*b as i64),
            Expr::Var(x) => {
                // SSA constant propagation: a use reached only by one
                // constant-valued def (whose taint is provably pure)
                // reads the literal directly.
                if let Some(k) = self.facts(f).const_uses.get(&(label, x.clone())) {
                    return CExpr::Const(*k);
                }
                if f.is_by_ref_param(x) {
                    CExpr::Deref(x)
                } else if f.declares(x) {
                    CExpr::Local {
                        slot: self.m.core.layouts.local(f.id, x),
                        nv: self.m.core.nv.scalar_slot(x),
                    }
                } else {
                    CExpr::Global(self.m.core.nv.scalar_slot(x))
                }
            }
            Expr::Deref(x) => CExpr::Deref(x),
            Expr::Ref(_) => CExpr::RefArg,
            Expr::Index(a, i) => CExpr::Index {
                slot: self.m.core.nv.array_slot(a),
                idx: Box::new(self.expr(f, label, i)),
            },
            Expr::Binary(op, l, r) => {
                let (lc, rc) = (self.expr(f, label, l), self.expr(f, label, r));
                if let (CExpr::Const(a), CExpr::Const(b)) = (&lc, &rc) {
                    return CExpr::Const(eval_binop(*op, *a, *b));
                }
                CExpr::Binary(*op, Box::new(lc), Box::new(rc))
            }
            Expr::Unary(op, x) => {
                let xc = self.expr(f, label, x);
                if let CExpr::Const(a) = &xc {
                    return CExpr::Const(match op {
                        UnOp::Neg => a.wrapping_neg(),
                        UnOp::Not => (*a == 0) as i64,
                    });
                }
                CExpr::Unary(*op, Box::new(xc))
            }
        }
    }
}

/// Intra-block batch metadata, computed backwards so each offset's run
/// extends the next one in O(block).
fn intra_block_batches(steps: &[Step<'_>]) -> Vec<Batch> {
    let mut batches = vec![Batch::default(); steps.len()];
    for i in (0..steps.len()).rev() {
        let s = &steps[i];
        if !batchable(s) {
            continue;
        }
        let Cost::Static { cycles, us } = s.cost else {
            continue;
        };
        let mut b = Batch {
            totals: RunTotals {
                len: 1,
                cycles,
                us,
                compute_cycles: if s.cat == Cat::Compute { cycles } else { 0 },
                output_cycles: if s.cat == Cat::Output { cycles } else { 0 },
            },
            head: 1,
            cont: Vec::new(),
        };
        // Control transfers end the intra-block run (a call's
        // continuation or a jump's target executes elsewhere); the
        // cross-block pass below re-attaches unconditional jump
        // targets. Otherwise absorb the run starting at the next step.
        if !transfers_control(&s.action) && i + 1 < steps.len() {
            let next = &batches[i + 1];
            if next.totals.len > 0 {
                b.totals.add(&next.totals);
                b.head += next.head;
            }
        }
        batches[i] = b;
    }
    batches
}

/// The cross-block totals of a batchable span starting at a block's
/// offset 0.
#[derive(Debug, Clone, Default)]
struct Span {
    segs: Vec<(BlockId, u32)>,
    totals: RunTotals,
}

/// Extends every run that reaches its block's unconditional jump with
/// the batchable prefix of the jump target (transitively, cycle-cut by
/// an in-progress marker — truncating at a cycle just ends the batch
/// early, which is always a valid shorter batch).
fn extend_batches_across_jumps(blocks: &mut [CompiledBlock<'_>]) {
    fn chase(bi: usize, blocks: &[CompiledBlock<'_>], memo: &mut [Option<Span>], state: &mut [u8]) {
        if state[bi] != 0 {
            return;
        }
        state[bi] = 1;
        let mut span = Span::default();
        let b0 = &blocks[bi].batches[0];
        if b0.totals.len > 0 {
            // At this point batches are intra-block only, so b0's
            // totals cover exactly its head segment.
            span.segs.push((BlockId(bi as u32), b0.head));
            span.totals = b0.totals;
            if b0.head as usize == blocks[bi].steps.len() {
                if let Action::Jump(t) = blocks[bi].steps[blocks[bi].steps.len() - 1].action {
                    let ti = t.0 as usize;
                    if state[ti] != 1 {
                        chase(ti, blocks, memo, state);
                        if let Some(rest) = &memo[ti] {
                            span.segs.extend(rest.segs.iter().copied());
                            span.totals.add(&rest.totals);
                        }
                    }
                }
            }
        }
        memo[bi] = Some(span);
        state[bi] = 2;
    }

    let n = blocks.len();
    let mut memo: Vec<Option<Span>> = vec![None; n];
    let mut state = vec![0u8; n];
    for bi in 0..n {
        chase(bi, blocks, &mut memo, &mut state);
    }
    // Attach each jump target's span to every run that reaches the
    // jump. Totals were computed from the (immutable) intra-block
    // batches above, so mutation order does not matter. (Indexing, not
    // iterating: each pass both reads a target block's memo entry and
    // mutates the current block's batches.)
    #[allow(clippy::needless_range_loop)]
    for bi in 0..n {
        let nsteps = blocks[bi].steps.len();
        let Action::Jump(t) = blocks[bi].steps[nsteps - 1].action else {
            continue;
        };
        let Some(span) = memo[t.0 as usize].clone() else {
            continue;
        };
        if span.totals.len == 0 {
            continue;
        }
        for i in 0..nsteps {
            let covers_jump = {
                let b = &blocks[bi].batches[i];
                b.totals.len > 0 && i + b.head as usize == nsteps
            };
            if covers_jump {
                let b = &mut blocks[bi].batches[i];
                b.totals.add(&span.totals);
                b.cont.extend(span.segs.iter().copied());
            }
        }
    }
}

/// A step the batched path may run without per-step supervision: its
/// cost is static, nothing checks or injects here, and it neither reads
/// the wall clock (inputs do) nor re-costs from live state
/// (`startatom` does).
fn batchable(s: &Step<'_>) -> bool {
    matches!(s.cost, Cost::Static { .. })
        && !s.checked
        && !s.inject
        && !matches!(s.action, Action::Input { .. } | Action::AtomStart { .. })
}

fn transfers_control(a: &Action<'_>) -> bool {
    matches!(
        a,
        Action::Call { .. } | Action::Jump(_) | Action::Branch { .. } | Action::Ret(_)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::DetectorConfig;
    use crate::machine::{DeviceState, MachineCore};
    use ocelot_hw::energy::CostModel;
    use ocelot_hw::power::ContinuousPower;
    use ocelot_hw::sensors::Environment;
    use ocelot_ir::{compile as irc, Program};

    fn machine_for(p: &Program) -> Machine<'_> {
        let taint = ocelot_analysis::taint::TaintAnalysis::run(p);
        let policies = ocelot_core::build_policies(p, &taint);
        Machine::new(
            p,
            &[],
            policies,
            Environment::new(),
            CostModel::default(),
            Box::new(ContinuousPower),
        )
    }

    fn compiled_shape(p: &Program) -> Vec<Vec<(bool, u32)>> {
        let m = machine_for(p);
        let cp = compile(&m);
        cp.funcs[p.main.0 as usize]
            .blocks
            .iter()
            .map(|b| {
                b.steps
                    .iter()
                    .zip(&b.batches)
                    .map(|(s, bt)| (matches!(s.cost, Cost::Static { .. }), bt.totals.len))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn straight_line_block_is_one_batch() {
        let p = irc("fn main() { let a = 1; let b = a + 1; out(log, b); }").unwrap();
        let shape = compiled_shape(&p);
        // Entry block: two binds, one output, and the jump to the exit
        // landing pad — all static; the run from offset 0 now spans the
        // jump into the exit block's batchable prefix.
        let entry = &shape[0];
        assert!(
            entry[0].1 as usize >= entry.len(),
            "whole block (and the jump target) batches: {entry:?}"
        );
        // Every suffix is also a valid batch: resuming mid-block after
        // a reboot still takes the fast path.
        for (is_static, len) in entry {
            assert!(*is_static);
            assert!(*len > 0);
        }
    }

    #[test]
    fn batches_span_unconditional_edges() {
        let p = irc("fn main() { let a = 1; let b = a + 2; out(log, a + b); }").unwrap();
        let m = machine_for(&p);
        let cp = compile(&m);
        let blocks = &cp.funcs[p.main.0 as usize].blocks;
        let total_steps: usize = blocks.iter().map(|b| b.steps.len()).sum();
        // The program is pure straight-line compute: one batch from the
        // entry offset should cover every step of every block on the
        // jump chain to the final return.
        let b0 = &blocks[0].batches[0];
        assert_eq!(
            b0.totals.len as usize, total_steps,
            "the entry batch spans the whole function: {b0:?}"
        );
        assert!(!b0.cont.is_empty(), "continuation segments were attached");
        assert_eq!(
            b0.head + b0.cont.iter().map(|(_, l)| *l).sum::<u32>(),
            b0.totals.len,
            "segment lengths add up"
        );
    }

    #[test]
    fn branch_arm_batches_continue_through_the_join() {
        // The then-arm ends in a jump to the join block, whose straight
        // line ends in a jump to the exit pad: the arm's batch carries
        // both as continuation segments, each with its own draw slice.
        let p = irc("nv g = 0; nv h = 0; fn main() { let a = 1; \
             if g == 0 { a = a + 2; let b = a * 3; h = b; } else { a = a + 5; } \
             let c = a + 1; let d = c * 2; h = h + d; out(log, d); }")
        .unwrap();
        let m = machine_for(&p);
        let cp = compile(&m);
        let blocks = &cp.funcs[p.main.0 as usize].blocks;
        let (bi, b) = blocks
            .iter()
            .enumerate()
            .map(|(bi, b)| (bi, &b.batches[0]))
            .max_by_key(|(_, b)| b.cont.len())
            .unwrap();
        assert!(b.cont.len() >= 2, "block {bi} continues twice: {b:?}");
        for (blk, len) in &b.cont {
            let cb = &blocks[blk.0 as usize];
            assert!(*len as usize <= cb.steps.len());
            assert_eq!(cb.nj.len(), cb.steps.len());
        }
        for (s, nj) in blocks[bi].steps.iter().zip(&blocks[bi].nj) {
            let Cost::Static { cycles, .. } = s.cost else {
                continue;
            };
            assert_eq!(nj.to_bits(), m.core.costs.cycles_to_nj(cycles).to_bits());
        }
    }

    #[test]
    fn inputs_and_region_entries_break_batches() {
        let p = irc("sensor s; nv g = 0; fn main() { let v = in(s); atomic { g = v; } }").unwrap();
        let m = machine_for(&p);
        let cp = compile(&m);
        let mut saw_input_break = false;
        let mut saw_atom_break = false;
        for f in &cp.funcs {
            for b in &f.blocks {
                for (s, bt) in b.steps.iter().zip(&b.batches) {
                    match s.action {
                        Action::Input { .. } => {
                            assert_eq!(bt.totals.len, 0, "inputs read the clock");
                            saw_input_break = true;
                        }
                        Action::AtomStart { .. } => {
                            assert_eq!(bt.totals.len, 0, "region entry re-costs from live state");
                            assert!(matches!(s.cost, Cost::Dynamic(_)));
                            saw_atom_break = true;
                        }
                        _ => {}
                    }
                }
            }
        }
        assert!(saw_input_break && saw_atom_break);
    }

    #[test]
    fn check_sites_and_injector_targets_are_prebound() {
        let p = irc("sensor s; fn main() { let x = in(s); fresh(x); out(alarm, x); }").unwrap();
        let taint = ocelot_analysis::taint::TaintAnalysis::run(&p);
        let policies = ocelot_core::build_policies(&p, &taint);
        let targets = crate::machine::pathological_targets(&policies);
        let m = Machine::new(
            &p,
            &[],
            policies,
            Environment::new(),
            CostModel::default(),
            Box::new(ContinuousPower),
        )
        .with_injector(targets.clone());
        let cp = compile(&m);
        let mut checked = 0;
        let mut injected = 0;
        for f in &cp.funcs {
            for b in &f.blocks {
                for (s, bt) in b.steps.iter().zip(&b.batches) {
                    if s.checked || s.inject {
                        assert_eq!(bt.totals.len, 0, "checked/injected sites never batch");
                    }
                    checked += s.checked as usize;
                    injected += s.inject as usize;
                }
            }
        }
        let det_cfg = DetectorConfig::from_policies(&m.core.policies);
        assert_eq!(
            checked,
            det_cfg.use_checks.len(),
            "every use-check site is pre-bound"
        );
        assert_eq!(injected, targets.len());
    }

    #[test]
    fn globals_resolve_to_their_nv_slots() {
        let p = irc("nv a = 1; nv arr[2]; nv b = 2; fn main() { b = a + arr[0]; }").unwrap();
        let m = machine_for(&p);
        let cp = compile(&m);
        let mut found = false;
        for f in &cp.funcs {
            for blk in &f.blocks {
                for s in &blk.steps {
                    if let Action::AssignGlobal { slot, src } = &s.action {
                        assert_eq!(Some(*slot), p.scalar_slot("b"));
                        // A traced core tracks the store's dependency set.
                        let CExpr::Binary(_, l, r) = src else {
                            panic!("src shape")
                        };
                        assert!(matches!(**l, CExpr::Global(s) if Some(s) == p.scalar_slot("a")));
                        assert!(
                            matches!(&**r, CExpr::Index { slot, .. } if Some(*slot) == p.array_slot("arr"))
                        );
                        found = true;
                    }
                }
            }
        }
        assert!(found, "the global store compiled to a slot write");
    }

    #[test]
    fn input_sites_with_fixed_stacks_get_interned_chains() {
        let p = irc(r#"
            sensor s;
            fn once() { let v = in(s); return v; }
            fn shared() { let v = in(s); return v; }
            fn main() {
                let a = once();
                let b = shared();
                let c = shared();
                let d = in(s);
                out(log, a + b + c + d);
            }
            "#)
        .unwrap();
        let m = machine_for(&p);
        let cp = compile(&m);
        let mut static_sites = 0;
        let mut dynamic_sites = 0;
        for f in &cp.funcs {
            for b in &f.blocks {
                for s in &b.steps {
                    if let Action::Input { chain, .. } = &s.action {
                        match chain {
                            Some(id) => {
                                static_sites += 1;
                                // The interned chain really ends at this
                                // input instruction.
                                assert_eq!(m.core.chains.get(*id).last(), Some(&s.iref));
                            }
                            None => dynamic_sites += 1,
                        }
                    }
                }
            }
        }
        assert_eq!(
            static_sites, 2,
            "the single-caller helper and the inline input pre-resolve"
        );
        assert_eq!(dynamic_sites, 1, "the shared helper stays dynamic");
    }

    #[test]
    fn locals_and_calls_resolve_to_slots() {
        let p = irc(r#"
            fn add(a, b) { return a + b; }
            fn main() { let x = 2; let y = add(x, 3); out(log, y); }
            "#)
        .unwrap();
        let m = machine_for(&p);
        let cp = compile(&m);
        let mut saw_call = false;
        for f in &cp.funcs {
            for b in &f.blocks {
                for s in &b.steps {
                    if let Action::Call { plan } = &s.action {
                        saw_call = true;
                        assert!(plan.ret_dst.is_some());
                        assert_eq!(plan.binds.len(), 2);
                        assert!(plan
                            .binds
                            .iter()
                            .all(|b| matches!(b, ArgBind::Value { .. })));
                        assert_eq!(
                            plan.nslots as usize,
                            m.core.layouts.layout(plan.callee).len()
                        );
                    }
                }
            }
        }
        assert!(saw_call);
    }

    // -----------------------------------------------------------------
    // Optimizer passes
    // -----------------------------------------------------------------

    /// Every `main` step of `cp`, the compiled `p`.
    fn main_actions<'a>(cp: &'a CompiledProgram<'a>, p: &Program) -> Vec<&'a Action<'a>> {
        cp.funcs[p.main.0 as usize]
            .blocks
            .iter()
            .flat_map(|b| b.steps.iter().map(|s| &s.action))
            .collect()
    }

    /// The store, argument, return and output sources of `a`: every
    /// expression whose dependency set a traced core tracks.
    fn value_sources<'a>(a: &'a Action<'a>) -> Vec<&'a CExpr<'a>> {
        match a {
            Action::Bind { src, .. }
            | Action::AssignLocal { src, .. }
            | Action::AssignGlobal { src, .. }
            | Action::AssignIndex { src, .. }
            | Action::AssignDeref { src, .. }
            | Action::AssignDyn { src, .. } => vec![src],
            Action::Output { args, .. } => args.iter().collect(),
            Action::Ret(e) => e.iter().collect(),
            Action::Call { plan } => plan
                .binds
                .iter()
                .filter_map(|b| match b {
                    ArgBind::Value { src, .. } => Some(src),
                    ArgBind::Ref { .. } => None,
                })
                .collect(),
            _ => vec![],
        }
    }

    #[test]
    fn constants_propagate_and_fold() {
        let p = irc("fn main() { let a = 2; let b = a * 3 + 1; out(log, b); }").unwrap();
        let m = machine_for(&p);
        let cp = compile(&m);
        // `b`'s definition folds to the literal 7, and the output reads
        // it back as a propagated constant.
        let folded = main_actions(&cp, &p).iter().any(|a| {
            matches!(
                a,
                Action::Bind {
                    src: CExpr::Const(7),
                    ..
                }
            ) || matches!(
                a,
                Action::AssignLocal {
                    src: CExpr::Const(7),
                    ..
                }
            )
        });
        assert!(folded, "b = a * 3 + 1 folds to 7");
        let out_const = main_actions(&cp, &p).iter().any(|a| {
            matches!(a, Action::Output { args, .. }
                if matches!(args.as_slice(), [CExpr::Const(7)]))
        });
        assert!(out_const, "out(log, b) reads the propagated constant");
    }

    #[test]
    fn constant_branches_straighten_to_jumps_keeping_branch_cost() {
        let p = irc("nv g = 0; fn main() { let a = 1; if a { g = 2; } else { g = 3; } }").unwrap();
        let m = machine_for(&p);
        let cp = compile(&m);
        let mut saw_fold = false;
        let compiled = &cp.funcs[p.main.0 as usize].blocks;
        for (cb, b) in compiled.iter().zip(&p.func(p.main).blocks) {
            let Terminator::Branch { then_bb, .. } = &b.term else {
                continue;
            };
            let term = cb.steps.last().expect("every block ends in its terminator");
            let Action::Jump(t) = term.action else {
                panic!("the constant branch became a jump");
            };
            saw_fold = true;
            // The fold picked the then-edge (a == 1) and the step still
            // charges the Branch's cycles.
            assert_eq!(t, *then_bb);
            let branch = m.core.costs.price(Priced::Term(&b.term), Facts::default());
            match term.cost {
                Cost::Static { cycles, .. } => {
                    assert_eq!(cycles, branch, "folding never changes simulated cost")
                }
                _ => panic!("branch costs are static"),
            }
        }
        assert!(saw_fold, "the program has a constant branch");
    }

    #[test]
    fn dead_stores_to_always_bound_locals_shrink_to_const_zero() {
        // `a` is never read again: the stored value is unobservable, so
        // the compile pass shrinks the source to a literal (the slot
        // write itself is kept — binding state and checkpoint size must
        // not change).
        let p = irc("nv g = 5; fn main() { let a = g; out(log, 1); }").unwrap();
        let m = machine_for(&p);
        let cp = compile(&m);
        let zero_binds = main_actions(&cp, &p)
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Bind {
                        src: CExpr::Const(0),
                        ..
                    }
                )
            })
            .count();
        // The lowering's `let $ret = 0` is a literal zero bind; the
        // shrink adds `a`'s.
        assert_eq!(zero_binds, 2, "the dead read of g was dropped");
    }

    #[test]
    fn dead_stores_to_possibly_unbound_locals_shrink_to_const_zero() {
        // `t` is bound on one arm only and read at the join, so it is
        // not always bound; its `let` is still a dead def (the arm
        // overwrites it before any read) and a `Bind`, which writes the
        // volatile slot like any other, so its source shrinks too.
        let p =
            irc("nv g = 5; fn main() { if g > 0 { let t = g; t = g + 1; } out(log, t); }").unwrap();
        let m = machine_for(&p);
        let facts = &m.core.ssa.funcs[p.main.0 as usize];
        assert!(!facts.always_bound.contains("t"));
        let cp = compile(&m);
        let zero_binds = main_actions(&cp, &p)
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Bind {
                        src: CExpr::Const(0),
                        ..
                    }
                )
            })
            .count();
        // The lowering's `let $ret = 0`, plus `t`'s dead initializer.
        assert_eq!(zero_binds, 2, "the dead read of g was dropped");
    }

    #[test]
    fn pure_of_wraps_every_source_on_stats_only_cores_and_only_indices_on_traced_ones() {
        // Every kind of value source, none of them constant or dead: a
        // bind, a global, an indexed and a by-ref store, value
        // arguments, a return and output arguments.
        let p = irc(r#"
            sensor s;
            nv g = 0;
            nv arr[4];
            fn put(&dst, v) { *dst = v + 1; }
            fn twice(a) { return a * 2; }
            fn main() {
                let v = in(s);
                let u = v + 1;
                let w = twice(u);
                put(&g, w);
                arr[v] = w;
                g = g + w;
                out(log, w, g);
            }
            "#)
        .unwrap();
        let traced = machine_for(&p);
        let core = MachineCore::build(
            &p,
            &[],
            traced.core.policies.clone(),
            &Environment::new(),
            CostModel::default(),
        );
        let stats_only = Machine::from_core(
            Arc::new(core),
            DeviceState::default(),
            Environment::new(),
            Box::new(ContinuousPower),
        );
        for (m, is_traced) in [(&stats_only, false), (&traced, true)] {
            assert_eq!(m.core.is_traced(), is_traced);
            let cp = compile(m);
            let mut indices = 0;
            let mut sources = 0;
            for f in &cp.funcs {
                for a in f.blocks.iter().flat_map(|b| &b.steps).map(|s| &s.action) {
                    if let Action::AssignIndex { idx, .. } = a {
                        assert!(
                            matches!(idx, CExpr::PureOf(_)),
                            "a store drops its index's dependency set on every core"
                        );
                        indices += 1;
                    }
                    for e in value_sources(a) {
                        if matches!(e, CExpr::Const(_)) {
                            continue;
                        }
                        sources += 1;
                        assert_eq!(
                            matches!(e, CExpr::PureOf(_)),
                            !is_traced,
                            "value-only exactly on the stats-only core"
                        );
                    }
                }
            }
            assert_eq!(indices, 1);
            assert_eq!(sources, 10, "every kind of source was seen");
        }
    }

    #[test]
    fn reclassified_locals_compile_to_binding_slot_stores() {
        // `a` is declared on one branch only, then assigned and read on
        // the join path: in-scope-but-unbound at the assignment, but
        // provably dead-on-reboot (every read is preceded by the store),
        // so it is reclassified as a volatile slot store that binds.
        let p = irc("nv g = 0; fn main() { if g { let a = 1; out(log, a); } a = 2; out(log, a); }")
            .unwrap();
        let m = machine_for(&p);
        let cp = compile(&m);
        let bound = main_actions(&cp, &p)
            .iter()
            .any(|a| matches!(a, Action::AssignLocal { .. }));
        assert!(
            bound,
            "the unbound-on-entry store compiles to a binding slot write"
        );
    }
}
