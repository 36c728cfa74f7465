//! The compiled engine's run loop.
//!
//! Mirrors `Machine::step` attempt-for-attempt — injector check, cost
//! charge, detector checks, execute — but over pre-resolved
//! [`Step`]s, and lifts maximal pure-compute runs into batches (see
//! [`super::compile`] for what makes a step batchable). A batch draws
//! its steps' energy through
//! [`ocelot_hw::power::PowerSupply::consume_run`], which stops at the
//! draw that trips the comparator, so on any supply the batch fails on
//! the same instruction, with the same booking and attempt count, as
//! the per-step loop. Everything checked or observable delegates to the
//! shared `Machine` helpers, so both backends execute the paper's
//! semantics through one implementation.

use super::compile::{self, Action, ArgBind, Batch, CExpr, Cost, Step};
use super::CompiledProgram;
use crate::machine::{eval_binop, Machine, RunOutcome};
use crate::memory::{Frame, Tainted};
use crate::obs::Obs;
use ocelot_hw::energy::PowerEvent;
use ocelot_ir::ast::UnOp;
use ocelot_ir::{BlockId, FuncId};
use std::sync::Arc;

/// How a batch ended.
enum Batched {
    /// Every step ran.
    Ran,
    /// `main` returned from the batch's last step.
    Returned,
    /// The comparator tripped; `attempts` steps were tried, the last of
    /// which failed.
    Failed {
        /// Attempts counted toward the step budget.
        attempts: u64,
    },
}

impl<'p> Machine<'p> {
    /// Runs `main` once on the compiled engine. Counts *attempts*
    /// exactly like the interpreter's `run_once`, so `StepLimit`
    /// boundaries agree between backends.
    pub(crate) fn run_once_compiled(&mut self, max_steps: u64) -> RunOutcome {
        if self.compiled.is_none() {
            // Injector-free machines share one compiled program per
            // core (compilation bakes in only core data); injector
            // targets are baked into steps, so those machines compile
            // privately.
            let cp = if self.injector_targets.is_empty() {
                Arc::clone(
                    self.core
                        .shared_compiled
                        .get_or_init(|| Arc::new(compile::compile(self))),
                )
            } else {
                Arc::new(compile::compile(self))
            };
            self.compiled = Some(cp);
        }
        let cp = Arc::clone(self.compiled.as_ref().expect("just compiled"));
        let violations_before = self.dev.stats.violations;
        let mut steps = 0u64;
        loop {
            if let Some(top) = self.dev.vol.top() {
                let (func, block, index) = (top.func, top.block, top.index);
                let cb = &cp.funcs[func.0 as usize].blocks[block.0 as usize];
                let batch = &cb.batches[index];
                // Take the fast path only when every attempt in the run
                // fits under the step budget, so the limit lands on the
                // same instruction as the per-step loop.
                let len = u64::from(batch.totals.len);
                if len > 0 && steps + len <= max_steps {
                    match self.exec_batch(&cp, func, block, index, batch) {
                        Batched::Returned => return self.complete_run(violations_before),
                        Batched::Ran => steps += len,
                        Batched::Failed { attempts } => {
                            steps += attempts;
                            if let Some(region) = self.dev.livelocked {
                                return RunOutcome::Livelock { region };
                            }
                        }
                    }
                    continue;
                }
            }
            steps += 1;
            if steps > max_steps {
                return RunOutcome::StepLimit;
            }
            if self.compiled_step(&cp) {
                return self.complete_run(violations_before);
            }
            if let Some(region) = self.dev.livelocked {
                return RunOutcome::Livelock { region };
            }
        }
    }

    /// Runs a whole batch (possibly spanning unconditional jumps) with
    /// per-instruction failure semantics. Every step's energy is drawn
    /// first, in step order, with one
    /// [`ocelot_hw::power::PowerSupply::consume_run`] per segment. With
    /// no trip, the batch totals are booked in one shot and the steps
    /// run flat-out. With a trip at step `j`, the steps before `j` run
    /// with per-step booking, step `j` is booked and the power fails
    /// before it takes effect — exactly where the per-step loop would
    /// have failed, since no batchable step reads the clock or the
    /// supply.
    fn exec_batch(
        &mut self,
        cp: &CompiledProgram<'p>,
        func: FuncId,
        block: BlockId,
        start: usize,
        batch: &Batch,
    ) -> Batched {
        let blocks = &cp.funcs[func.0 as usize].blocks;
        // The head segment, then each continuation segment: the jump
        // that ended the previous segment repositions the frame at the
        // segment's offset 0.
        let segments = std::iter::once((block, start..start + batch.head as usize))
            .chain(batch.cont.iter().map(|&(blk, len)| (blk, 0..len as usize)));
        let mut trip = None;
        let mut drawn = 0;
        for (blk, r) in segments.clone() {
            if let Some(j) = self
                .supply
                .consume_run(&blocks[blk.0 as usize].nj[r.clone()])
            {
                trip = Some(drawn + j);
                break;
            }
            drawn += r.len();
        }
        if trip.is_none() {
            let t = &batch.totals;
            self.dev.stats.breakdown.compute += t.compute_cycles;
            self.dev.stats.breakdown.output += t.output_cycles;
            self.dev.stats.on_cycles += t.cycles;
            self.dev.now_us += t.us;
            self.dev.stats.on_time_us += t.us;
        }
        let mut k = 0;
        for (blk, r) in segments {
            debug_assert_eq!(
                self.dev.vol.top().map(|t| (t.func, t.block, t.index)),
                Some((func, blk, r.start)),
                "the followed jump landed where the batch plan expected"
            );
            for step in &blocks[blk.0 as usize].steps[r] {
                if let Some(j) = trip {
                    let Cost::Static { cycles, us } = step.cost else {
                        unreachable!("batched steps have static costs")
                    };
                    self.book_static(step, cycles, us);
                    if k == j {
                        self.power_fail();
                        return Batched::Failed {
                            attempts: j as u64 + 1,
                        };
                    }
                }
                self.dev.tau += 1;
                self.dev.stats.instructions += 1;
                if self.exec_action(step) {
                    return Batched::Returned;
                }
                k += 1;
            }
        }
        Batched::Ran
    }

    /// One checked attempt, mirroring the interpreter's `step` stage
    /// for stage. Returns true when the program run completed.
    fn compiled_step(&mut self, cp: &CompiledProgram<'p>) -> bool {
        let Some(top) = self.dev.vol.top() else {
            return true;
        };
        let cb = &cp.funcs[top.func.0 as usize].blocks[top.block.0 as usize];
        let step = &cb.steps[top.index];
        let here = step.iref;

        // 1. Pathological injection (pre-bound site flag).
        if step.inject && !self.injector_fired.contains(&here) {
            self.injector_fired.insert(here);
            self.power_fail();
            return false;
        }

        // 2. Pay for the operation; exhaustion fails before it takes
        //    effect.
        let low = match step.cost {
            Cost::Static { cycles, us } => {
                self.book_static(step, cycles, us);
                self.supply.consume(self.core.costs.cycles_to_nj(cycles))
            }
            Cost::Dynamic(op) => {
                let cycles = self.op_cost(op, step.action.store());
                self.book_breakdown(step, cycles);
                self.charge(cycles)
            }
        };
        if low == PowerEvent::LowPower {
            self.power_fail();
            return false;
        }

        // 3. Detector / expiry checks, only at pre-bound sites.
        if step.checked && self.run_checks(here) {
            self.mitigation_restart();
            return false;
        }

        // 4. Execute.
        self.dev.tau += 1;
        self.dev.stats.instructions += 1;
        self.exec_action(step)
    }

    /// Books a static-cost attempt: its breakdown category, cycles and
    /// time, as [`Machine::charge`] does before drawing the energy.
    fn book_static(&mut self, step: &Step<'p>, cycles: u64, us: u64) {
        self.book_breakdown(step, cycles);
        self.dev.stats.on_cycles += cycles;
        self.dev.now_us += us;
        self.dev.stats.on_time_us += us;
    }

    fn book_breakdown(&mut self, step: &Step<'p>, cycles: u64) {
        match step.cat {
            compile::Cat::Compute => self.dev.stats.breakdown.compute += cycles,
            compile::Cat::Input => self.dev.stats.breakdown.input += cycles,
            compile::Cat::Output => self.dev.stats.breakdown.output += cycles,
            compile::Cat::Checkpoint => self.dev.stats.breakdown.checkpoint += cycles,
        }
    }

    /// Executes one pre-resolved step. Returns true when `main`
    /// returned.
    fn exec_action(&mut self, step: &Step<'p>) -> bool {
        let here = step.iref;
        match &step.action {
            Action::Skip => {
                self.advance();
            }
            // A `Volatile` store binds its slot if no binding has yet.
            Action::Bind { dst: slot, src } | Action::AssignLocal { slot, src } => {
                self.store_slot(*slot, src);
                self.advance();
            }
            Action::AssignGlobal { slot, src } => {
                let v = self.ceval(src);
                self.nv_write_scalar(*slot, v);
                self.advance();
            }
            Action::AssignIndex { slot, idx, src } => {
                let v = self.ceval(src);
                let i = self.ceval(idx);
                let (cell, old) = self.dev.nv.write_idx_slot(*slot, i.value, v);
                self.log_cell_undo(*slot, cell, old);
                self.advance();
            }
            Action::AssignDeref { index, src } => {
                let v = self.ceval(src);
                self.write_target(self.ref_at(*index), v);
                self.advance();
            }
            Action::AssignDyn { slot, nv, src } => {
                let v = self.ceval(src);
                let top = self.dev.vol.top_mut().expect("frame exists");
                if top.get_slot(*slot).is_some() {
                    top.set_slot(*slot, v);
                } else {
                    self.nv_write_scalar(*nv, v);
                }
                self.advance();
            }
            Action::Input {
                dst,
                sensor_name,
                chan,
                chain,
            } => {
                let sensor_name = |_: &Self| Arc::clone(sensor_name);
                match chain {
                    // Fixed call stack: everything pre-resolved.
                    Some(id) => self.input_core(here, *dst, sensor_name, *chan, Some(*id), None),
                    // Data-dependent call path: rebuild and probe.
                    None => {
                        let chain = self.dynamic_chain(here);
                        let id = self.core.chains.lookup(&chain);
                        self.input_core(here, *dst, sensor_name, *chan, id, Some(chain));
                    }
                }
            }
            Action::Call { plan } => {
                let caller_idx = self.dev.vol.frames.len() - 1;
                let mut frame = self.take_frame(
                    plan.callee,
                    plan.entry,
                    plan.nslots as usize,
                    plan.ret_dst,
                    here,
                );
                for bind in &plan.binds {
                    match bind {
                        ArgBind::Value { slot, src } => {
                            let v = self.ceval(src);
                            frame.set_slot(*slot, v);
                        }
                        ArgBind::Ref { index, arg } => {
                            frame.bind_ref(*index, self.resolve_ref(caller_idx, *arg));
                        }
                    }
                }
                // Resume point: after the call.
                self.advance();
                self.dev.vol.frames.push(frame);
            }
            Action::Output { channel, args } => {
                // Every read is total and side-effect free, so a
                // stats-only machine leaves the arguments unevaluated.
                self.observe(|m| {
                    let vals: Vec<Tainted> = args.iter().map(|e| m.ceval(e)).collect();
                    let mut deps = crate::memory::Deps::new();
                    for v in &vals {
                        deps.union_with(&v.deps);
                    }
                    Obs::Output {
                        at: here,
                        tau: m.dev.tau,
                        era: m.dev.era,
                        channel: Arc::clone(channel),
                        values: vals.iter().map(|v| v.value).collect(),
                        deps,
                    }
                });
                self.dev.stats.outputs += 1;
                self.advance();
            }
            Action::AtomStart { region } => {
                // Advance first: rollback resumes after the marker.
                self.advance();
                self.atom_start(*region);
            }
            Action::AtomEnd { region } => {
                self.atom_end(*region);
                self.advance();
            }
            Action::Jump(b) => {
                let top = self.dev.vol.top_mut().expect("frame exists");
                top.block = *b;
                top.index = 0;
            }
            Action::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                // Both backends branch on the value alone; the
                // condition's dependency set is never observed.
                let v = self.ceval_value(cond);
                let top = self.dev.vol.top_mut().expect("frame exists");
                top.block = if v != 0 { *then_bb } else { *else_bb };
                top.index = 0;
            }
            Action::Ret(e) => {
                let v = e
                    .as_ref()
                    .map(|e| self.ceval(e))
                    .unwrap_or_else(|| Tainted::pure(0));
                let done = self.dev.vol.frames.pop().expect("frame exists");
                let ret_dst = done.ret_dst;
                self.recycle_frame(done);
                match self.dev.vol.top_mut() {
                    Some(caller) => {
                        if let Some(s) = ret_dst {
                            caller.set_slot(s, v);
                        }
                    }
                    None => return true, // main returned
                }
            }
        }
        false
    }

    /// Stores `src` into the active frame's `slot`. A [`CExpr::PureOf`]
    /// source — a stats-only core observes no dependency set — is
    /// evaluated by value only and written in place, with no taint set
    /// built or copied.
    fn store_slot(&mut self, slot: u32, src: &CExpr) {
        match src {
            CExpr::PureOf(e) => {
                let v = self.ceval_value(e);
                let top = self.dev.vol.top_mut().expect("frame exists");
                top.set_slot_pure(slot, v);
            }
            _ => {
                let v = self.ceval(src);
                let top = self.dev.vol.top_mut().expect("frame exists");
                top.set_slot(slot, v);
            }
        }
    }

    /// Evaluates a pre-classified expression; equivalent to the
    /// interpreter's `eval` over the original [`ocelot_ir::ast::Expr`].
    fn ceval(&self, e: &CExpr) -> Tainted {
        match e {
            CExpr::Const(n) => Tainted::pure(*n),
            CExpr::Local { slot, nv } => {
                match self.dev.vol.top().and_then(|t| t.get_slot(*slot)) {
                    Some(v) => v.clone(),
                    // Declared but unbound: the cell of its name.
                    None => self.dev.nv.read_slot(*nv),
                }
            }
            CExpr::Deref(i) => self.read_target(self.ref_at(*i)),
            CExpr::Global(slot) => self.dev.nv.read_slot(*slot),
            CExpr::Index { slot, idx } => {
                let i = self.ceval(idx);
                let mut v = self.dev.nv.read_idx_slot(*slot, i.value);
                v.deps.union_with(&i.deps);
                v
            }
            CExpr::Binary(op, l, r) => {
                let mut a = self.ceval(l);
                let b = self.ceval(r);
                a.value = eval_binop(*op, a.value, b.value);
                a.deps.union_with(&b.deps);
                a
            }
            CExpr::Unary(op, x) => {
                let a = self.ceval(x);
                let value = match op {
                    UnOp::Neg => a.value.wrapping_neg(),
                    UnOp::Not => (a.value == 0) as i64,
                };
                Tainted {
                    value,
                    deps: a.deps,
                }
            }
            CExpr::RefArg => Tainted::pure(0),
            // No consumer reads this subtree's dependency set:
            // evaluate by value only, skipping every taint-set clone
            // and merge.
            CExpr::PureOf(e) => Tainted::pure(self.ceval_value(e)),
        }
    }

    /// Value-only twin of [`Machine::ceval`]: computes the same `i64`
    /// without touching dependency sets. Reached under [`CExpr::PureOf`]
    /// and for branch conditions, whose dependency sets no consumer
    /// reads.
    fn ceval_value(&self, e: &CExpr) -> i64 {
        self.value_in(self.dev.vol.top(), e)
    }

    /// [`Machine::ceval_value`] against the active frame `top`, looked
    /// up once per expression instead of once per local read.
    fn value_in(&self, top: Option<&Frame>, e: &CExpr) -> i64 {
        match e {
            CExpr::Const(n) => *n,
            CExpr::Local { slot, nv } => match top.and_then(|t| t.get_slot(*slot)) {
                Some(v) => v.value,
                None => self.dev.nv.read_slot_value(*nv),
            },
            CExpr::Deref(i) => self.read_target(self.ref_at(*i)).value,
            CExpr::Global(slot) => self.dev.nv.read_slot_value(*slot),
            CExpr::Index { slot, idx } => {
                let i = self.operand(top, idx);
                self.dev.nv.read_idx_slot_value(*slot, i)
            }
            CExpr::Binary(op, l, r) => eval_binop(*op, self.operand(top, l), self.operand(top, r)),
            CExpr::Unary(op, x) => {
                let a = self.operand(top, x);
                match op {
                    UnOp::Neg => a.wrapping_neg(),
                    UnOp::Not => (a == 0) as i64,
                }
            }
            CExpr::RefArg => 0,
            CExpr::PureOf(e) => self.value_in(top, e),
        }
    }

    /// An operand of [`Machine::value_in`]: constants and bound locals,
    /// most operands, are read in place; anything else recurses.
    #[inline(always)]
    fn operand(&self, top: Option<&Frame>, e: &CExpr) -> i64 {
        match e {
            CExpr::Const(n) => *n,
            CExpr::Local { slot, .. } => match top.and_then(|t| t.get_slot(*slot)) {
                Some(v) => v.value,
                None => self.value_in(top, e),
            },
            _ => self.value_in(top, e),
        }
    }
}
