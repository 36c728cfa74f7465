//! Runtime memory: taint-carrying values, non-volatile memory, volatile
//! frames, and the undo log.
//!
//! Following the paper's taint-augmented semantics (Appendix B), every
//! location stores its value *and* the logical timestamps of the input
//! operations the value depends on — that is what lets the trace checker
//! validate Definitions 2 and 3 on real executions.
//!
//! Both memories are **slot-indexed**, laid out once per program. A
//! `FrameLayouts` table assigns every by-value parameter and every
//! lowered local of each function a dense frame slot, so the hot path
//! reads and writes a `Vec` instead of probing a name-keyed map. An
//! `NvLayout` fixes the non-volatile address space — the paper's one
//! map `N`: every global, array and unbound-local cell has its slot
//! before any device runs, so a device's `NvMem` holds values only,
//! and the undo log keys its entries by slot. The runtime runs programs
//! that passed [`ocelot_ir::validate()`], whose every `let`, input and
//! call destination binds a declared local, so every binding has a
//! slot; the interpreter resolves names through the layouts. A frame's
//! volatile footprint is the number of *bound* locals plus the fixed
//! register-file share.

use ocelot_ir::{BlockId, FuncId, Program};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Inline capacity of a [`Deps`] set: dependency sets are almost always
/// tiny (one sample, or a handful combined into an average), so they
/// live in the value itself and cost no allocation until they outgrow
/// this.
const DEPS_INLINE: usize = 8;

#[derive(Debug, Clone)]
enum DepsRepr {
    /// Sorted, deduplicated prefix of `buf`.
    Inline { len: u8, buf: [u64; DEPS_INLINE] },
    /// Spill representation for large sets (keeps ordered-set
    /// semantics). A set spills only by growing past the inline
    /// capacity, so representations stay canonical: ≤ 8 elements is
    /// always `Inline`.
    Heap(BTreeSet<u64>),
}

/// Logical timestamps of input operations a value depends on — the
/// paper's `I`.
///
/// Semantically an ordered `u64` set (what [`BTreeSet`] provided); the
/// representation keeps up to eight timestamps inline because the
/// hot path creates, clones, and unions one of these for every tainted
/// value the machine touches.
#[derive(Debug, Clone)]
pub struct Deps(DepsRepr);

impl Default for Deps {
    fn default() -> Self {
        Deps::new()
    }
}

impl Deps {
    /// The empty set.
    pub(crate) const fn new() -> Self {
        Deps(DepsRepr::Inline {
            len: 0,
            buf: [0; DEPS_INLINE],
        })
    }

    /// Number of timestamps.
    pub fn len(&self) -> usize {
        match &self.0 {
            DepsRepr::Inline { len, .. } => *len as usize,
            DepsRepr::Heap(s) => s.len(),
        }
    }

    /// True when no input is depended on.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts `t`, returning true when it was new.
    pub(crate) fn insert(&mut self, t: u64) -> bool {
        match &mut self.0 {
            DepsRepr::Inline { len, buf } => {
                let n = *len as usize;
                match buf[..n].binary_search(&t) {
                    Ok(_) => false,
                    Err(pos) => {
                        if n < DEPS_INLINE {
                            buf.copy_within(pos..n, pos + 1);
                            buf[pos] = t;
                            *len += 1;
                        } else {
                            let mut s: BTreeSet<u64> = buf.iter().copied().collect();
                            s.insert(t);
                            self.0 = DepsRepr::Heap(s);
                        }
                        true
                    }
                }
            }
            DepsRepr::Heap(s) => s.insert(t),
        }
    }

    /// Empties the set (a spilled set returns to the inline form).
    pub(crate) fn clear(&mut self) {
        match &mut self.0 {
            DepsRepr::Inline { len, .. } => *len = 0,
            DepsRepr::Heap(_) => *self = Deps::new(),
        }
    }

    /// Iterates the timestamps in ascending order.
    pub fn iter(&self) -> DepsIter<'_> {
        match &self.0 {
            DepsRepr::Inline { len, buf } => DepsIter::Inline(buf[..*len as usize].iter()),
            DepsRepr::Heap(s) => DepsIter::Heap(s.iter()),
        }
    }
}

/// Borrowing iterator over a [`Deps`] set, ascending.
pub enum DepsIter<'a> {
    /// Inline storage.
    Inline(std::slice::Iter<'a, u64>),
    /// Spilled storage.
    Heap(std::collections::btree_set::Iter<'a, u64>),
}

impl<'a> Iterator for DepsIter<'a> {
    type Item = &'a u64;
    fn next(&mut self) -> Option<&'a u64> {
        match self {
            DepsIter::Inline(i) => i.next(),
            DepsIter::Heap(i) => i.next(),
        }
    }
}

impl PartialEq for Deps {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl Eq for Deps {}

impl<const N: usize> From<[u64; N]> for Deps {
    fn from(xs: [u64; N]) -> Self {
        xs.into_iter().collect()
    }
}

impl FromIterator<u64> for Deps {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut d = Deps::new();
        d.extend(iter);
        d
    }
}

impl Extend<u64> for Deps {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        for t in iter {
            self.insert(t);
        }
    }
}

impl IntoIterator for Deps {
    type Item = u64;
    type IntoIter = std::vec::IntoIter<u64>;
    fn into_iter(self) -> Self::IntoIter {
        // Only used on cold paths (set unions through `Extend` stay
        // borrow-based); collecting keeps the iterator type simple.
        self.iter().copied().collect::<Vec<u64>>().into_iter()
    }
}

/// A value with its input-dependency timestamps.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Tainted {
    /// The integer value (booleans are 0/1).
    pub(crate) value: i64,
    /// Input timestamps this value depends on.
    pub(crate) deps: Deps,
}

impl Tainted {
    /// An untainted constant.
    pub(crate) fn pure(value: i64) -> Self {
        Tainted {
            value,
            deps: Deps::new(),
        }
    }

    /// A freshly-sampled input collected at logical time `tau`.
    pub(crate) fn input(value: i64, tau: u64) -> Self {
        Tainted {
            value,
            deps: Deps::from([tau]),
        }
    }

    /// Combines two operands: the result depends on both.
    pub(crate) fn combine(value: i64, a: &Tainted, b: &Tainted) -> Self {
        let mut deps = a.deps.clone();
        deps.extend(b.deps.iter().copied());
        Tainted { value, deps }
    }
}

/// The non-volatile address space of one program, fixed when its core
/// is built: the slot of every scalar cell and array, and the initial
/// image each device starts from.
///
/// Declared globals keep the numbering of
/// [`ocelot_ir::Program::scalar_slot`] / [`ocelot_ir::Program::array_slot`].
/// After the scalar globals, each distinct name a function declares by
/// value (a local or value parameter) that names no scalar global gets
/// one zeroed cell: the surface language has no block scoping, so a
/// local that is in scope but unbound stores to and reads from the
/// non-volatile cell of its name, shared by every function declaring
/// it.
pub(crate) struct NvLayout {
    scalars: BTreeMap<String, usize>,
    arrays: BTreeMap<String, usize>,
    init: NvMem,
}

impl NvLayout {
    /// Lays out `p`'s non-volatile memory (arrays zero-fill).
    pub(crate) fn new(p: &Program) -> Self {
        let mut l = NvLayout {
            scalars: BTreeMap::new(),
            arrays: BTreeMap::new(),
            init: NvMem::default(),
        };
        for g in &p.globals {
            match g.array_len {
                Some(n) => {
                    l.arrays.insert(g.name.clone(), l.init.arrays.len());
                    l.init.arrays.push(vec![Tainted::pure(0); n]);
                }
                None => {
                    l.scalars.insert(g.name.clone(), l.init.scalars.len());
                    l.init.scalars.push(Tainted::pure(g.init));
                }
            }
        }
        for f in &p.funcs {
            let values = f.params.iter().filter(|q| !q.by_ref).map(|q| &q.name);
            for name in f.locals.iter().chain(values) {
                if !l.scalars.contains_key(name) {
                    l.scalars.insert(name.clone(), l.init.scalars.len());
                    l.init.scalars.push(Tainted::default());
                }
            }
        }
        l
    }

    /// The slot of scalar cell `name`, if the program has one.
    pub(crate) fn scalar(&self, name: &str) -> Option<usize> {
        self.scalars.get(name).copied()
    }

    /// The slot of scalar cell `name`: a scalar global, or a name some
    /// function declares by value.
    ///
    /// # Panics
    ///
    /// Panics if `name` has no scalar cell.
    pub(crate) fn scalar_slot(&self, name: &str) -> usize {
        self.scalars[name]
    }

    /// The slot of the declared array `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a declared array.
    pub(crate) fn array_slot(&self, name: &str) -> usize {
        self.arrays[name]
    }

    /// The memory a fresh device starts from.
    pub(crate) fn init(&self) -> &NvMem {
        &self.init
    }
}

/// Non-volatile memory: the values of every scalar cell and array, at
/// the slots the program's [`NvLayout`] assigns. Survives power
/// failures.
#[derive(Debug, PartialEq, Eq, Default)]
pub(crate) struct NvMem {
    scalars: Vec<Tainted>,
    arrays: Vec<Vec<Tainted>>,
}

impl Clone for NvMem {
    fn clone(&self) -> Self {
        NvMem {
            scalars: self.scalars.clone(),
            arrays: self.arrays.clone(),
        }
    }

    /// Copies `source` into the vectors already here, so resetting a
    /// recycled device to the initial image allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        self.scalars.clone_from(&source.scalars);
        self.arrays.clone_from(&source.arrays);
    }
}

impl NvMem {
    /// Reads the scalar at `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` was not obtained from [`NvLayout`].
    pub(crate) fn read_slot(&self, slot: usize) -> Tainted {
        self.scalars[slot].clone()
    }

    /// Value-only read of the scalar at `slot` — no dependency-set
    /// clone. Used by the compiled engine's value-only expression path,
    /// where no consumer reads the deps.
    ///
    /// # Panics
    ///
    /// Panics if `slot` was not obtained from [`NvLayout`].
    pub(crate) fn read_slot_value(&self, slot: usize) -> i64 {
        self.scalars[slot].value
    }

    /// Writes the scalar at `slot`, returning the previous value for
    /// undo logging.
    ///
    /// # Panics
    ///
    /// Panics if `slot` was not obtained from [`NvLayout`].
    pub(crate) fn write_slot(&mut self, slot: usize, v: Tainted) -> Tainted {
        std::mem::replace(&mut self.scalars[slot], v)
    }

    /// Reads cell `idx` of the array at `slot`; out-of-bounds indices
    /// clamp to the last cell (embedded-style saturation, keeping runs
    /// total).
    ///
    /// # Panics
    ///
    /// Panics if `slot` was not obtained from [`NvLayout::array_slot`].
    pub(crate) fn read_idx_slot(&self, slot: usize, idx: i64) -> Tainted {
        let a = &self.arrays[slot];
        if a.is_empty() {
            return Tainted::default();
        }
        let i = (idx.max(0) as usize).min(a.len() - 1);
        a[i].clone()
    }

    /// Value-only variant of [`NvMem::read_idx_slot`] — no
    /// dependency-set clone.
    ///
    /// # Panics
    ///
    /// Panics if `slot` was not obtained from [`NvLayout::array_slot`].
    pub(crate) fn read_idx_slot_value(&self, slot: usize, idx: i64) -> i64 {
        let a = &self.arrays[slot];
        if a.is_empty() {
            return 0;
        }
        let i = (idx.max(0) as usize).min(a.len() - 1);
        a[i].value
    }

    /// Writes cell `idx` (clamped) of the array at `slot`, returning
    /// `(clamped_index, old)`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` was not obtained from [`NvLayout::array_slot`].
    pub(crate) fn write_idx_slot(&mut self, slot: usize, idx: i64, v: Tainted) -> (usize, Tainted) {
        let a = &mut self.arrays[slot];
        if a.is_empty() {
            return (0, Tainted::default());
        }
        let i = (idx.max(0) as usize).min(a.len() - 1);
        let old = std::mem::replace(&mut a[i], v);
        (i, old)
    }

    /// Reads the location `loc` (an ω entry read at region entry).
    pub(crate) fn read_loc(&self, loc: NvLoc) -> Tainted {
        match loc {
            NvLoc::Scalar(s) => self.read_slot(s),
            NvLoc::Cell(s, i) => self.read_idx_slot(s, i as i64),
        }
    }
}

/// How one parameter of a function is bound at call time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ParamBind {
    /// A by-value parameter: bound into this local slot.
    Value(u32),
    /// A by-mutable-reference parameter: resolved into the frame's
    /// reference map under this (shared) name.
    Ref(Arc<str>),
}

/// One function's local slot layout: by-value parameters first (in
/// parameter order), then the lowered locals (in
/// [`ocelot_ir::Function::locals`] order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FrameLayout {
    /// Entry block of the function (so frames can be created without a
    /// [`Program`] in hand).
    pub(crate) entry: BlockId,
    index: BTreeMap<Arc<str>, u32>,
    params: Vec<ParamBind>,
}

impl FrameLayout {
    fn of(f: &ocelot_ir::Function) -> Self {
        let mut l = FrameLayout {
            entry: f.entry,
            index: BTreeMap::new(),
            params: Vec::new(),
        };
        let add = |l: &mut FrameLayout, name: &str| -> u32 {
            if let Some(&s) = l.index.get(name) {
                return s; // duplicate declaration: first slot wins
            }
            let s = l.index.len() as u32;
            l.index.insert(Arc::from(name), s);
            s
        };
        for p in &f.params {
            if p.by_ref {
                l.params.push(ParamBind::Ref(Arc::from(p.name.as_str())));
            } else {
                let s = add(&mut l, &p.name);
                l.params.push(ParamBind::Value(s));
            }
        }
        for name in &f.locals {
            add(&mut l, name);
        }
        l
    }

    /// The slot of `name`, if this function declares it by value.
    pub fn slot(&self, name: &str) -> Option<u32> {
        self.index.get(name).copied()
    }

    /// Number of local slots.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Parameter bindings, in parameter order.
    pub(crate) fn params(&self) -> &[ParamBind] {
        &self.params
    }
}

/// The slot layouts of every function in a program, indexed by
/// [`FuncId`]. Built once; shared by both execution backends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FrameLayouts {
    funcs: Vec<FrameLayout>,
}

impl FrameLayouts {
    /// Computes the layout of every function of `p`.
    pub(crate) fn new(p: &Program) -> Self {
        FrameLayouts {
            funcs: p.funcs.iter().map(FrameLayout::of).collect(),
        }
    }

    /// The layout of function `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    pub(crate) fn layout(&self, f: FuncId) -> &FrameLayout {
        &self.funcs[f.0 as usize]
    }

    /// The slot of `name` in function `f`, if declared by value.
    pub fn slot(&self, f: FuncId, name: &str) -> Option<u32> {
        self.layout(f).slot(name)
    }

    /// The slot of `f`'s declared local or by-value parameter `name` —
    /// what every `let`, input and call destination of a validated
    /// program binds.
    ///
    /// # Panics
    ///
    /// Panics if `f` declares no such `name`.
    pub(crate) fn local(&self, f: FuncId, name: &str) -> u32 {
        self.layout(f).index[name]
    }
}

/// Where a by-reference parameter ultimately points: resolved at call
/// time (references cannot re-seat, so resolution is stable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RefTarget {
    /// A local slot in an earlier frame (`frame` indexes the stack from
    /// the bottom).
    Local {
        /// Stack index of the owning frame.
        frame: usize,
        /// Slot within that frame.
        slot: u32,
    },
    /// The non-volatile scalar cell at this slot: a global, or the cell
    /// of an unbound local's name.
    Global(usize),
}

/// One call frame: the program counter and slot-indexed local bindings.
///
/// A slot is *unbound* (`None`) until a `let`, input, call result, or
/// parameter binds it — the runtime distinction behind the paper
/// model's "no block scoping" quirk, where an in-scope-but-unbound
/// local stores non-volatile. The frame's checkpoint footprint counts
/// only bound slots, exactly like the name-keyed map it replaces.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Frame {
    /// The executing function.
    pub(crate) func: FuncId,
    /// Current basic block.
    pub(crate) block: BlockId,
    /// Next instruction index within the block (`instrs.len()` = the
    /// terminator).
    pub(crate) index: usize,
    /// Local slots (`None` = declared but not yet bound).
    slots: Vec<Option<Tainted>>,
    /// Number of bound slots (the volatile word count of `slots`).
    bound: u32,
    /// Resolution of by-reference parameters.
    pub(crate) refs: BTreeMap<Arc<str>, RefTarget>,
    /// The caller slot that receives the return value, if any.
    pub(crate) ret_dst: Option<u32>,
    /// The call instruction that created this frame (`None` for the
    /// bottom frame); the dynamic provenance chain is read off these.
    pub(crate) call_site: Option<ocelot_ir::InstrRef>,
}

impl Clone for Frame {
    fn clone(&self) -> Self {
        Frame {
            func: self.func,
            block: self.block,
            index: self.index,
            slots: self.slots.clone(),
            bound: self.bound,
            refs: self.refs.clone(),
            ret_dst: self.ret_dst,
            call_site: self.call_site,
        }
    }

    /// Copies `source` into this frame, reusing its slot vector (the
    /// checkpoint and restore paths clone whole stacks per reboot).
    fn clone_from(&mut self, source: &Self) {
        self.func = source.func;
        self.block = source.block;
        self.index = source.index;
        self.slots.clone_from(&source.slots);
        self.bound = source.bound;
        self.refs.clone_from(&source.refs);
        self.ret_dst = source.ret_dst;
        self.call_site = source.call_site;
    }
}

impl Frame {
    /// A frame at the entry of `func` with all slots unbound.
    pub(crate) fn at_entry(layouts: &FrameLayouts, func: FuncId) -> Self {
        let l = layouts.layout(func);
        Frame::raw(func, l.entry, l.len(), None, None)
    }

    /// A frame for a call into `func` at `entry` with `nslots` local
    /// slots; parameters are bound afterwards via [`Frame::set_slot`].
    pub(crate) fn for_call(
        func: FuncId,
        entry: BlockId,
        nslots: usize,
        ret_dst: Option<u32>,
        call_site: ocelot_ir::InstrRef,
    ) -> Self {
        Frame::raw(func, entry, nslots, ret_dst, Some(call_site))
    }

    fn raw(
        func: FuncId,
        block: BlockId,
        nslots: usize,
        ret_dst: Option<u32>,
        call_site: Option<ocelot_ir::InstrRef>,
    ) -> Self {
        Frame {
            func,
            block,
            index: 0,
            slots: vec![None; nslots],
            bound: 0,
            refs: BTreeMap::new(),
            ret_dst,
            call_site,
        }
    }

    /// Re-initializes a recycled frame for a new call, keeping its
    /// allocations (slot vector capacity, map nodes are already empty).
    pub(crate) fn reuse(
        &mut self,
        func: FuncId,
        entry: BlockId,
        nslots: usize,
        ret_dst: Option<u32>,
        call_site: ocelot_ir::InstrRef,
    ) {
        self.reset(func, entry, nslots, ret_dst, Some(call_site));
    }

    /// Re-initializes this frame as [`Frame::at_entry`] would build it,
    /// keeping its allocations.
    pub(crate) fn reuse_at_entry(&mut self, layouts: &FrameLayouts, func: FuncId) {
        let l = layouts.layout(func);
        self.reset(func, l.entry, l.len(), None, None);
    }

    fn reset(
        &mut self,
        func: FuncId,
        entry: BlockId,
        nslots: usize,
        ret_dst: Option<u32>,
        call_site: Option<ocelot_ir::InstrRef>,
    ) {
        self.func = func;
        self.block = entry;
        self.index = 0;
        self.slots.clear();
        self.slots.resize(nslots, None);
        self.bound = 0;
        self.refs.clear();
        self.ret_dst = ret_dst;
        self.call_site = call_site;
    }

    /// The bound value of `slot`, or `None` while unbound.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is outside the frame's layout.
    pub(crate) fn get_slot(&self, slot: u32) -> Option<&Tainted> {
        self.slots[slot as usize].as_ref()
    }

    /// Binds (or rebinds) `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is outside the frame's layout.
    pub(crate) fn set_slot(&mut self, slot: u32, v: Tainted) {
        let cell = &mut self.slots[slot as usize];
        if cell.is_none() {
            self.bound += 1;
        }
        *cell = Some(v);
    }

    /// Binds (or rebinds) `slot` to the untainted `value`, in place:
    /// the same binding as `set_slot(slot, Tainted::pure(value))`
    /// without building a temporary.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is outside the frame's layout.
    pub(crate) fn set_slot_pure(&mut self, slot: u32, value: i64) {
        match &mut self.slots[slot as usize] {
            Some(t) => {
                t.value = value;
                t.deps.clear();
            }
            cell @ None => {
                *cell = Some(Tainted::pure(value));
                self.bound += 1;
            }
        }
    }

    /// Number of words of volatile state this frame holds (bound locals
    /// plus a fixed register-file share).
    pub(crate) fn words(&self) -> usize {
        self.bound as usize + 4
    }
}

/// The whole volatile machine state: the call stack. Lost on power
/// failure unless checkpointed.
#[derive(Debug, PartialEq, Eq, Default)]
pub(crate) struct VolState {
    /// Call frames, bottom first.
    pub(crate) frames: Vec<Frame>,
}

impl Clone for VolState {
    fn clone(&self) -> Self {
        VolState {
            frames: self.frames.clone(),
        }
    }

    /// Copies `source` frame by frame into the frames already here, so a
    /// pooled snapshot (or the live stack on restore) keeps its slot
    /// vectors.
    fn clone_from(&mut self, source: &Self) {
        self.frames.clone_from(&source.frames);
    }
}

impl VolState {
    /// Volatile footprint in words (drives checkpoint cost).
    pub(crate) fn words(&self) -> usize {
        16 + self.frames.iter().map(Frame::words).sum::<usize>()
    }

    /// The active frame.
    pub(crate) fn top(&self) -> Option<&Frame> {
        self.frames.last()
    }

    /// The active frame, mutably.
    pub(crate) fn top_mut(&mut self) -> Option<&mut Frame> {
        self.frames.last_mut()
    }
}

/// A non-volatile location: the key of an undo-log entry and of a
/// region's eagerly logged ω set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum NvLoc {
    /// The scalar cell at this slot.
    Scalar(usize),
    /// Cell `i` of the array at this slot.
    Cell(usize, usize),
}

/// Undo log for an atomic region: first-write-wins snapshots of
/// non-volatile locations.
///
/// Backed by a hash map so [`UndoLog::clear`] keeps its capacity — the
/// machine pools one log across region entries instead of re-allocating
/// per entry. Restoration order is irrelevant (one entry per location),
/// so the map's iteration order never becomes observable.
#[derive(Debug, Clone, Default)]
pub(crate) struct UndoLog {
    entries: HashMap<NvLoc, Tainted>,
}

impl UndoLog {
    /// Records the pre-state of `loc` unless already logged. Returns
    /// true when a new entry was added (for cost accounting).
    pub(crate) fn save(&mut self, loc: NvLoc, old: Tainted) -> bool {
        if let std::collections::hash_map::Entry::Vacant(e) = self.entries.entry(loc) {
            e.insert(old);
            true
        } else {
            false
        }
    }

    /// Number of logged words.
    pub(crate) fn words(&self) -> usize {
        self.entries.len()
    }

    /// Restores every logged location into `nv` — the paper's `N ◁ L`.
    pub(crate) fn apply(&self, nv: &mut NvMem) {
        for (&loc, old) in &self.entries {
            match loc {
                NvLoc::Scalar(s) => {
                    nv.write_slot(s, old.clone());
                }
                // A store to an empty array logs a cell 0 it does not
                // have; there is nothing to restore.
                NvLoc::Cell(s, i) => {
                    if let Some(cell) = nv.arrays[s].get_mut(i) {
                        *cell = old.clone();
                    }
                }
            }
        }
    }

    /// Drops all entries, keeping the allocation (region committed).
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_ir::compile;

    #[test]
    fn tainted_combine_unions_deps() {
        let a = Tainted::input(3, 10);
        let b = Tainted::input(4, 20);
        let c = Tainted::combine(7, &a, &b);
        assert_eq!(c.value, 7);
        assert_eq!(c.deps, Deps::from([10, 20]));
    }

    #[test]
    fn nv_init_from_globals() {
        let p = compile("nv g = 5; nv a[3]; fn main() {}").unwrap();
        let layout = NvLayout::new(&p);
        let nv = layout.init();
        assert_eq!(nv.read_slot(layout.scalar_slot("g")).value, 5);
        assert_eq!(nv.read_idx_slot(layout.array_slot("a"), 2).value, 0);
        assert!(layout.arrays.contains_key("a"));
        assert!(!layout.arrays.contains_key("g"));
    }

    #[test]
    fn slots_agree_with_the_ir_numbering_and_stay_stable() {
        let p = compile(
            "nv a = 1; nv arr[2]; nv b = 2; \
             fn f(v, &r) { let t = v; let a = t; } \
             fn main() { let t = 3; let u = 4; }",
        )
        .unwrap();
        let layout = NvLayout::new(&p);
        for g in &p.globals {
            match g.array_len {
                Some(_) => assert_eq!(
                    Some(layout.array_slot(&g.name)),
                    p.array_slot(&g.name),
                    "{}",
                    g.name
                ),
                None => assert_eq!(layout.scalar(&g.name), p.scalar_slot(&g.name), "{}", g.name),
            }
        }
        // One zeroed cell per distinct by-value name after the two
        // scalar globals, shared across functions; a local named like a
        // global uses the global's cell, and by-ref parameters get none.
        let mut cells: Vec<usize> = ["$ret", "t", "v", "u"]
            .iter()
            .map(|n| layout.scalar_slot(n))
            .collect();
        cells.sort_unstable();
        assert_eq!(cells, [2, 3, 4, 5]);
        assert_eq!(layout.scalar("r"), None);
        assert_eq!(layout.scalar_slot("a"), 0);
        let mut nv = layout.init().clone();
        assert!(cells.iter().all(|&c| nv.read_slot(c) == Tainted::default()));
        let old = nv.write_slot(layout.scalar_slot("t"), Tainted::pure(9));
        assert_eq!(old, Tainted::default());
        assert_eq!(nv.read_slot_value(layout.scalar_slot("t")), 9);
    }

    #[test]
    fn clone_from_restores_the_initial_image_exactly() {
        let p = compile("nv g = 5; nv a[3]; nv h = -2; fn main() { let x = 1; }").unwrap();
        let layout = NvLayout::new(&p);
        let mut nv = layout.init().clone();
        nv.write_slot(layout.scalar_slot("g"), Tainted::input(9, 4));
        nv.write_slot(layout.scalar_slot("x"), Tainted::input(1, 2));
        nv.write_idx_slot(layout.array_slot("a"), 1, Tainted::input(7, 8));
        nv.clone_from(layout.init());
        assert_eq!(&nv, layout.init());
        // An image of another layout is replaced wholesale.
        let q = compile("nv other = 1; nv b[5]; nv c[1]; fn main() {}").unwrap();
        let other = NvLayout::new(&q);
        nv.clone_from(other.init());
        assert_eq!(&nv, other.init());
    }

    #[test]
    fn tainted_and_value_only_array_reads_clamp_alike() {
        let p = compile("nv arr[3]; fn main() {}").unwrap();
        let layout = NvLayout::new(&p);
        let mut nv = layout.init().clone();
        let s = layout.array_slot("arr");
        let (i, _) = nv.write_idx_slot(s, 2, Tainted::input(5, 3));
        assert_eq!(i, 2);
        for idx in [-4, 0, 2, 99] {
            assert_eq!(
                nv.read_idx_slot(s, idx).value,
                nv.read_idx_slot_value(s, idx),
                "index {idx}"
            );
        }
        assert_eq!(nv.read_idx_slot_value(s, 99), 5, "clamps to the last cell");
    }

    #[test]
    fn array_indices_clamp() {
        let p = compile("nv a[2]; fn main() {}").unwrap();
        let layout = NvLayout::new(&p);
        let mut nv = layout.init().clone();
        let a = layout.array_slot("a");
        nv.write_idx_slot(a, 7, Tainted::pure(9));
        assert_eq!(nv.read_idx_slot(a, 100).value, 9, "both clamp to last cell");
        nv.write_idx_slot(a, -5, Tainted::pure(1));
        assert_eq!(nv.read_idx_slot(a, 0).value, 1);
    }

    #[test]
    fn undo_log_first_write_wins_and_applies() {
        let p = compile("nv g = 5; fn main() {}").unwrap();
        let layout = NvLayout::new(&p);
        let mut nv = layout.init().clone();
        let g = layout.scalar_slot("g");
        let mut log = UndoLog::default();
        let old = nv.write_slot(g, Tainted::pure(6));
        assert!(log.save(NvLoc::Scalar(g), old));
        let old2 = nv.write_slot(g, Tainted::pure(7));
        assert!(!log.save(NvLoc::Scalar(g), old2), "already logged");
        assert_eq!(nv.read_slot(g).value, 7);
        log.apply(&mut nv);
        assert_eq!(nv.read_slot(g).value, 5, "rollback to pre-region value");
        assert_eq!(log.words(), 1);
    }

    #[test]
    fn undo_log_handles_array_cells() {
        let p = compile("nv a[4]; nv e[0]; fn main() {}").unwrap();
        let layout = NvLayout::new(&p);
        let mut nv = layout.init().clone();
        let mut log = UndoLog::default();
        let a = layout.array_slot("a");
        let (i, old) = nv.write_idx_slot(a, 2, Tainted::pure(42));
        log.save(NvLoc::Cell(a, i), old);
        assert_eq!(nv.read_loc(NvLoc::Cell(a, 2)).value, 42);
        // A store to an empty array logs a cell it does not have.
        let e = layout.array_slot("e");
        let (i, old) = nv.write_idx_slot(e, 3, Tainted::pure(1));
        log.save(NvLoc::Cell(e, i), old);
        log.apply(&mut nv);
        assert_eq!(&nv, layout.init());
    }

    #[test]
    fn layouts_cover_params_and_locals() {
        let p = compile(
            r#"
            fn add(a, &res, b) { *res = a + b; return 0; }
            fn main() { let x = 1; let y = add(x, &x, 2); out(log, x + y); }
            "#,
        )
        .unwrap();
        let layouts = FrameLayouts::new(&p);
        let add = p
            .funcs
            .iter()
            .find(|f| f.name == "add")
            .map(|f| f.id)
            .unwrap();
        let l = layouts.layout(add);
        // Value params a and b get the first slots (param order); the
        // by-ref param resolves through the refs map instead.
        assert_eq!(l.slot("a"), Some(0));
        assert_eq!(l.slot("b"), Some(1));
        assert_eq!(l.slot("res"), None);
        assert_eq!(l.params().len(), 3);
        assert!(matches!(l.params()[0], ParamBind::Value(0)));
        assert!(matches!(l.params()[1], ParamBind::Ref(ref n) if &**n == "res"));
        assert!(matches!(l.params()[2], ParamBind::Value(1)));
        // main's layout names every lowered local.
        let lm = layouts.layout(p.main);
        assert!(lm.slot("x").is_some());
        assert!(lm.slot("y").is_some());
        assert_eq!(lm.len(), p.func(p.main).locals.len());
    }

    #[test]
    fn frame_words_count_bound_slots_only() {
        let p = compile("fn main() { let x = 1; let y = 2; }").unwrap();
        let layouts = FrameLayouts::new(&p);
        let mut vol = VolState::default();
        let base = vol.words();
        vol.frames.push(Frame::at_entry(&layouts, p.main));
        // Unbound slots carry no volatile words — same accounting as
        // the name-keyed map this replaced.
        assert_eq!(vol.words(), base + 4);
        let x = layouts.slot(p.main, "x").unwrap();
        vol.top_mut().unwrap().set_slot(x, Tainted::pure(1));
        assert_eq!(vol.words(), base + 4 + 1);
        // Rebinding does not double-count.
        vol.top_mut().unwrap().set_slot(x, Tainted::pure(2));
        assert_eq!(vol.words(), base + 4 + 1);
        let y = layouts.local(p.main, "y");
        vol.top_mut().unwrap().set_slot_pure(y, 3);
        assert_eq!(vol.words(), base + 4 + 2);
    }

    #[test]
    fn pure_slot_stores_and_snapshot_copies_match_their_plain_forms() {
        let p = compile("fn f(a) { let b = a; } fn main() { let x = 1; let y = 2; }").unwrap();
        let layouts = FrameLayouts::new(&p);
        let (x, y) = (
            layouts.slot(p.main, "x").unwrap(),
            layouts.slot(p.main, "y").unwrap(),
        );
        let mut plain = Frame::at_entry(&layouts, p.main);
        let mut pure = plain.clone();
        // A spilled dependency set (past the inline capacity) and an
        // unbound slot: the in-place store must empty the one and bind
        // the other, exactly like a store of `Tainted::pure`.
        let wide = Tainted {
            value: 5,
            deps: (0..20).collect(),
        };
        plain.set_slot(x, wide.clone());
        pure.set_slot(x, wide);
        plain.set_slot(x, Tainted::pure(7));
        pure.set_slot_pure(x, 7);
        plain.set_slot(y, Tainted::pure(8));
        pure.set_slot_pure(y, 8);
        assert_eq!(pure, plain);
        assert_eq!(pure.words(), plain.words());

        // `clone_from` into stacks of other shapes (more frames, fewer
        // frames, other slot counts) yields the source exactly.
        let callee = p.func_by_name("f").unwrap();
        let src = VolState {
            frames: vec![plain.clone(), Frame::at_entry(&layouts, callee)],
        };
        for frames in [vec![], vec![pure.clone()], vec![pure.clone(); 3]] {
            let mut dst = VolState { frames };
            dst.clone_from(&src);
            assert_eq!(dst, src);
        }
    }
}
