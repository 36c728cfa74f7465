//! Name resolution for the interpreter: every name occurrence of a
//! program mapped, once per core, to the storage it reads or writes.
//!
//! The interpreter walks the lowered IR, whose variables are names. A
//! name's storage depends only on the function it occurs in and on the
//! core's frame layouts, non-volatile layout and store classes, so a
//! name table resolves every occurrence the interpreter touches when
//! a core first runs it: expression reads (`x`, `*x`, `a[i]`), store
//! places, `let`/input/call destinations and `&x` arguments. What stays
//! dynamic is only what the paper's semantics make dynamic: whether a
//! local's slot is bound yet, and where a reference points.
//!
//! The table is keyed by occurrence, not by name. The interpreter
//! already knows the site `(f, ℓ)` it executes, so the table is indexed
//! `[func][label]`, and each site holds the few occurrences of its
//! instruction or terminator, each under the address of its [`String`]
//! inside the program the core borrows. Two occurrences of one name in
//! different functions (or as a read and as a binding) resolve
//! differently; an address is unique per occurrence and stable for as
//! long as the program is borrowed, so a lookup indexes the site and
//! compares a handful of machine words, and never a name's bytes.

use crate::memory::{FrameLayouts, NvLayout};
use ocelot_analysis::{StoreClass, StoreClasses};
use ocelot_ir::ast::{Arg, Expr};
use ocelot_ir::{FuncId, Function, InstrRef, Op, Place, Program, Terminator};

/// Where one name occurrence lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    /// A declared local or by-value parameter of the function, at frame
    /// slot `slot`. While the slot is unbound (the paper model has no
    /// block scoping), the occurrence reads and stores the non-volatile
    /// cell `nv` of its name. `nv` is `None` only where the occurrence
    /// binds the slot whatever its state: a `let`, an input or call
    /// destination, and a [`StoreClass::Volatile`] store.
    Local {
        /// Frame slot.
        slot: u32,
        /// Non-volatile fallback cell of an unbound slot.
        nv: Option<usize>,
    },
    /// A by-ref parameter of the function, at this position among the
    /// frame's references.
    Ref(u32),
    /// A non-volatile scalar cell: a global's, or that of a name the
    /// function does not declare.
    Global(usize),
    /// A declared array, at this non-volatile array slot.
    Array(usize),
}

/// Per-site data of a program, indexed `[func][label]`: what both
/// engines look up by the site they execute.
#[derive(Debug, Clone)]
pub(crate) struct SiteMap<T>(Vec<Vec<Option<T>>>);

impl<T: Clone> SiteMap<T> {
    /// An empty map over `p`'s sites.
    pub(crate) fn new(p: &Program) -> Self {
        SiteMap(p.funcs.iter().map(|f| vec![None; label_count(f)]).collect())
    }
}

impl<T> SiteMap<T> {
    /// The entry of site `at`, if it has one.
    #[inline]
    pub(crate) fn get(&self, at: InstrRef) -> Option<&T> {
        self.0[at.func.0 as usize]
            .get(at.label.0 as usize)?
            .as_ref()
    }

    /// Sets the entry of site `at`.
    pub(crate) fn insert(&mut self, at: InstrRef, v: T) {
        self.0[at.func.0 as usize][at.label.0 as usize] = Some(v);
    }

    /// Every entry, mutably.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.0.iter_mut().flatten().flatten()
    }
}

/// The key of the name occurrence `name`: the address of the `String`
/// itself, which no other live `String` shares (an address of its text
/// would not do: every empty string has the same one).
#[allow(clippy::ptr_arg)]
pub(crate) fn addr(name: &String) -> usize {
    name as *const String as usize
}

/// How a name resolves in one function, from the layouts both engines
/// share.
#[derive(Clone, Copy)]
pub(crate) struct Resolver<'a> {
    pub(crate) layouts: &'a FrameLayouts,
    pub(crate) nv: &'a NvLayout,
}

impl Resolver<'_> {
    /// A read of `x` in `f`: a declared local or value parameter (its
    /// slot, else its name's cell), then a by-ref parameter, then the
    /// cell of the name. `None` when the program has no such cell (a
    /// fresh variable logged outside the function declaring it), which
    /// reads as an untainted 0, as a never-written cell would.
    pub(crate) fn read(&self, f: FuncId, x: &str) -> Option<Storage> {
        let layout = self.layouts.layout(f);
        if let Some(slot) = layout.slot(x) {
            return Some(Storage::Local {
                slot,
                nv: Some(self.nv.scalar_slot(x)),
            });
        }
        if let Some(i) = layout.ref_index(x) {
            return Some(Storage::Ref(i));
        }
        self.nv.scalar(x).map(Storage::Global)
    }

    /// A `&x` argument in `f`: a forwarded reference first, then a
    /// local (its slot while bound, else its name's cell), then a
    /// global.
    pub(crate) fn ref_arg(&self, f: FuncId, x: &str) -> Storage {
        let layout = self.layouts.layout(f);
        if let Some(i) = layout.ref_index(x) {
            Storage::Ref(i)
        } else if let Some(slot) = layout.slot(x) {
            Storage::Local {
                slot,
                nv: Some(self.nv.scalar_slot(x)),
            }
        } else {
            Storage::Global(self.nv.scalar_slot(x))
        }
    }

    /// A binding of `x` in `f` (a `let`, input or call destination):
    /// its slot, bound whatever its state.
    fn binding(&self, f: FuncId, x: &str) -> Storage {
        Storage::Local {
            slot: self.layouts.local(f, x),
            nv: None,
        }
    }

    /// `*x` in `f`.
    fn deref(&self, f: FuncId, x: &str) -> Storage {
        let i = self.layouts.layout(f).ref_index(x);
        Storage::Ref(i.expect("`*x` names a by-ref parameter"))
    }
}

/// The storage of every name occurrence the interpreter reads or writes
/// in one program, by site (see the module documentation).
pub(crate) struct NameTable {
    /// `[func][label]`: the range of the site's occurrences in `occ`.
    sites: Vec<Vec<(u32, u32)>>,
    /// Every site's `(address, storage)` pairs, site after site.
    occ: Vec<(usize, Storage)>,
}

/// The occurrences of one site.
#[derive(Clone, Copy)]
pub(crate) struct Site<'a>(&'a [(usize, Storage)]);

impl NameTable {
    /// Resolves every occurrence in `p`, which must be the program the
    /// layouts and store classes were built from.
    ///
    /// # Panics
    ///
    /// Panics on an occurrence a validated program cannot hold (a
    /// dereference of a non-reference, a binding of an undeclared
    /// local).
    pub(crate) fn build(p: &Program, r: Resolver<'_>, stores: &StoreClasses) -> Self {
        let mut b = Build { r, occ: Vec::new() };
        let mut sites = Vec::with_capacity(p.funcs.len());
        for f in &p.funcs {
            let mut at = vec![(0, 0); label_count(f)];
            for block in &f.blocks {
                for inst in &block.instrs {
                    let site = InstrRef {
                        func: f.id,
                        label: inst.label,
                    };
                    let start = b.occ.len() as u32;
                    b.op(site, &inst.op, stores);
                    at[inst.label.0 as usize] = (start, b.occ.len() as u32);
                }
                let start = b.occ.len() as u32;
                match &block.term {
                    Terminator::Branch { cond, .. } => b.expr(f.id, cond),
                    Terminator::Ret(Some(e)) => b.expr(f.id, e),
                    Terminator::Jump(_) | Terminator::Ret(None) => {}
                }
                at[block.term_label.0 as usize] = (start, b.occ.len() as u32);
            }
            sites.push(at);
        }
        NameTable { sites, occ: b.occ }
    }

    /// The occurrences of the instruction or terminator at `at`.
    #[inline]
    pub(crate) fn site(&self, at: InstrRef) -> Site<'_> {
        let (start, end) = self.sites[at.func.0 as usize][at.label.0 as usize];
        Site(&self.occ[start as usize..end as usize])
    }
}

impl Site<'_> {
    /// The storage of the occurrence `name` of this site.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not an occurrence of the site that the
    /// interpreter reads or writes.
    #[inline]
    #[allow(clippy::ptr_arg)]
    pub(crate) fn get(self, name: &String) -> Storage {
        match self.find(name) {
            Some(s) => s,
            None => unresolved(name),
        }
    }

    /// [`Site::get`], or `None` for an unknown occurrence.
    #[inline]
    #[allow(clippy::ptr_arg)]
    pub(crate) fn find(self, name: &String) -> Option<Storage> {
        let key = addr(name);
        self.0.iter().find(|(a, _)| *a == key).map(|&(_, s)| s)
    }

    /// The slot a binding of `var` (a `let`, input or call destination)
    /// writes.
    #[allow(clippy::ptr_arg)]
    pub(crate) fn binding(self, var: &String) -> u32 {
        match self.get(var) {
            Storage::Local { slot, nv: None } => slot,
            s => unreachable!("a binding of `{var}` resolved to {s:?}"),
        }
    }

    /// Where a store to `place` writes.
    pub(crate) fn place(self, place: &Place) -> Storage {
        match place {
            Place::Var(x) | Place::Deref(x) | Place::Index(x, _) => self.get(x),
        }
    }
}

/// One more than the largest instruction or terminator label of `f`:
/// the length of a `[label]`-indexed table.
pub(crate) fn label_count(f: &Function) -> usize {
    f.blocks
        .iter()
        .flat_map(|b| b.instrs.iter().map(|i| i.label).chain([b.term_label]))
        .map(|l| l.0 as usize + 1)
        .max()
        .unwrap_or(0)
}

#[cold]
#[inline(never)]
fn unresolved(name: &str) -> ! {
    panic!("the name table has no entry for this occurrence of `{name}`: a bug, since the core resolved every occurrence of its validated program")
}

/// The table under construction.
struct Build<'a> {
    r: Resolver<'a>,
    occ: Vec<(usize, Storage)>,
}

impl Build<'_> {
    fn put(&mut self, name: &String, s: Storage) {
        self.occ.push((addr(name), s));
    }

    fn op(&mut self, site: InstrRef, op: &Op, stores: &StoreClasses) {
        let f = site.func;
        match op {
            Op::Bind { var, src } => {
                self.expr(f, src);
                self.put(var, self.r.binding(f, var));
            }
            Op::Assign { place, src } => {
                self.expr(f, src);
                match place {
                    Place::Var(x) => {
                        let nv = self.r.nv.scalar_slot(x);
                        let s = match stores.class(site) {
                            Some(StoreClass::Volatile) => self.r.binding(f, x),
                            Some(StoreClass::MaybeNv) => Storage::Local {
                                slot: self.r.layouts.local(f, x),
                                nv: Some(nv),
                            },
                            None => Storage::Global(nv),
                        };
                        self.put(x, s);
                    }
                    Place::Index(a, i) => {
                        self.put(a, Storage::Array(self.r.nv.array_slot(a)));
                        self.expr(f, i);
                    }
                    Place::Deref(x) => self.put(x, self.r.deref(f, x)),
                }
            }
            Op::Input { var, .. } => self.put(var, self.r.binding(f, var)),
            Op::Call { dst, args, .. } => {
                if let Some(d) = dst {
                    self.put(d, self.r.binding(f, d));
                }
                for a in args {
                    match a {
                        Arg::Value(e) => self.expr(f, e),
                        Arg::Ref(x) => self.put(x, self.r.ref_arg(f, x)),
                    }
                }
            }
            Op::Output { args, .. } => {
                for e in args {
                    self.expr(f, e);
                }
            }
            Op::Skip | Op::Annot { .. } | Op::AtomStart { .. } | Op::AtomEnd { .. } => {}
        }
    }

    fn expr(&mut self, f: FuncId, e: &Expr) {
        match e {
            Expr::Int(_) | Expr::Bool(_) | Expr::Ref(_) => {}
            Expr::Var(x) => {
                let s = self.r.read(f, x);
                self.put(x, s.expect("a validated read names a cell"));
            }
            Expr::Deref(x) => self.put(x, self.r.deref(f, x)),
            Expr::Index(a, i) => {
                self.put(a, Storage::Array(self.r.nv.array_slot(a)));
                self.expr(f, i);
            }
            Expr::Binary(_, l, r) => {
                self.expr(f, l);
                self.expr(f, r);
            }
            Expr::Unary(_, x) => self.expr(f, x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `(name, storage)` pair of `e`'s variable reads.
    fn reads<'p>(t: Site<'_>, e: &'p Expr, out: &mut Vec<(&'p str, Storage)>) {
        match e {
            Expr::Var(x) => out.push((x, t.get(x))),
            Expr::Binary(_, l, r) => {
                reads(t, l, out);
                reads(t, r, out);
            }
            Expr::Unary(_, x) => reads(t, x, out),
            _ => {}
        }
    }

    #[test]
    fn one_name_resolves_per_occurrence() {
        let p = ocelot_ir::compile(
            "nv g = 0; fn put(&r, x) { *r = x; } \
             fn main() { let x = g; if x { let t = 1; } t = t + x; put(&g, t); g = x; }",
        )
        .unwrap();
        let layouts = FrameLayouts::new(&p);
        let nv = NvLayout::new(&p);
        let stores = StoreClasses::analyze(&p);
        let r = Resolver {
            layouts: &layouts,
            nv: &nv,
        };
        let table = NameTable::build(&p, r, &stores);
        let mut seen = Vec::new();
        for f in &p.funcs {
            for (_, inst) in f.iter_insts() {
                let site = table.site(InstrRef {
                    func: f.id,
                    label: inst.label,
                });
                match &inst.op {
                    Op::Assign {
                        place: Place::Var(x) | Place::Deref(x),
                        src,
                    } => {
                        seen.push((x.as_str(), site.get(x)));
                        reads(site, src, &mut seen);
                    }
                    Op::Call { args, .. } => {
                        for a in args {
                            match a {
                                Arg::Ref(x) => seen.push((x.as_str(), site.get(x))),
                                Arg::Value(e) => reads(site, e, &mut seen),
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        let local = |f, x: &str, nv| Storage::Local {
            slot: layouts.local(f, x),
            nv,
        };
        let put = p.funcs.iter().find(|f| f.name == "put").unwrap().id;
        let cell = |x: &str| Some(nv.scalar_slot(x));
        for expected in [
            ("r", Storage::Ref(0)),
            ("x", local(put, "x", cell("x"))),
            // `t = t + x` may find `t` unbound: store and read fall back.
            ("t", local(p.main, "t", cell("t"))),
            ("x", local(p.main, "x", cell("x"))),
            // `&g` and `g = x`.
            ("g", Storage::Global(nv.scalar_slot("g"))),
        ] {
            assert!(seen.contains(&expected), "{expected:?} in {seen:?}");
        }
    }
}
