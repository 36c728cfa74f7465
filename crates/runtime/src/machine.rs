//! The intermittent execution machine: the paper's JIT + Atomics
//! operational semantics (Appendix H) with the taint augmentation of
//! Appendix B, driven by a simulated power supply and sensor
//! environment.
//!
//! One [`Machine`] executes a lowered program instruction by
//! instruction, charging energy per operation. When the supply reports
//! low power the machine follows the paper's rules:
//!
//! * `JIT-LowPower` — checkpoint volatile state into the context, shut
//!   down, recharge, `JIT-Reboot` restore and continue;
//! * `Atom-LowPower` — shut down immediately; `Atom-Reboot` applies the
//!   undo log (`N ◁ L`), restores the region-entry snapshot, and
//!   re-executes the region from its start;
//! * `Atom-Start-Outer/Inner`, `Atom-End-Outer/Inner` — nested regions
//!   flatten via the `natom` counter.
//!
//! ## The input fast path
//!
//! Per-collection bookkeeping (timestamping, bit-vector checks,
//! provenance recording) dominates the runtime of input-bound apps, so
//! everything a fixed call stack determines is resolved **once at
//! construction**: provenance chains are interned into a
//! [`ocelot_analysis::chains::ChainTable`] (every policy chain plus
//! every input site with a statically-unique call stack), and each
//! interned chain carries its detector bit, its pre-resolved
//! consistency checks, and whether the TICS timekeeper stamps it. Input
//! sites reached through several call paths fall back to rebuilding the
//! dynamic chain and probing the table; chains outside the table belong
//! to no policy and skip the detector entirely (exactly what the
//! name-keyed maps used to conclude, one allocation later).

use crate::detect::{BitVector, DetectorConfig, ResolvedCheck, ViolationKind};
use crate::exec::{CompiledProgram, ExecBackend, OptLevel};
use crate::memory::{
    Frame, FrameLayouts, NvLayout, NvLoc, NvMem, ParamBind, RefTarget, Tainted, UndoLog, VolState,
};
use crate::obs::{Obs, ObsLog};
use crate::stats::Stats;
use ocelot_analysis::chains::{ChainId, ChainTable};
use ocelot_analysis::taint::Prov;
use ocelot_analysis::ProgramSsa;
use ocelot_core::{PolicyKind, PolicySet, RegionInfo};
use ocelot_hw::energy::{CostModel, Entry, Facts, PowerEvent, Priced};
use ocelot_hw::power::PowerSupply;
use ocelot_hw::sensors::Environment;
use ocelot_ir::ast::{Arg, BinOp, Expr, UnOp};
use ocelot_ir::{FuncId, InstrRef, Op, Place, Program, RegionId, Terminator};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

/// Saved execution context `κ` (non-volatile).
#[derive(Debug, Clone)]
pub(crate) enum Ctx {
    /// JIT mode; `None` until the first checkpoint (boot context points
    /// at the program start).
    Jit(Option<Box<VolState>>),
    /// Atomic mode: region-entry snapshot, undo log, nesting counter.
    Atom {
        /// Region-entry snapshot of volatile state.
        snap: Box<VolState>,
        /// Undo log of non-volatile pre-state.
        log: UndoLog,
        /// Nesting counter for flattened inner regions.
        natom: u32,
        /// The open region.
        region: RegionId,
    },
}

/// Result of driving one complete program run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// `main` returned. `violated` reports whether the detector fired
    /// during this run.
    Completed {
        /// True when at least one policy violation was detected.
        violated: bool,
    },
    /// The step budget ran out before completion.
    StepLimit,
    /// An atomic region rolled back more times in a row than the
    /// configured [`Machine::with_reexec_limit`] allows: its worst-case
    /// attempt does not fit in the energy buffer, so the program can
    /// make no forward progress (§5.3). Samoyed-style scaling rules key
    /// off this outcome.
    Livelock {
        /// The region that never committed.
        region: RegionId,
    },
}

/// Instructions the pathological injector fails at, derived from
/// policies per §7.3: immediately before each use of a fresh variable,
/// and *between* the collections of a consistent set — concretely, at
/// the point where each collection's provenance chain diverges from the
/// previous one (the first call site or input op unique to it), so the
/// failure lands after one collection and before the next.
pub fn pathological_targets(policies: &PolicySet) -> BTreeSet<InstrRef> {
    let mut targets = BTreeSet::new();
    for pol in policies.iter() {
        if pol.is_vacuous() {
            continue;
        }
        match pol.kind {
            PolicyKind::Fresh => targets.extend(pol.uses.iter().copied()),
            PolicyKind::Consistent(_) => {
                let chains: Vec<&Prov> = pol.inputs.iter().collect();
                for w in chains.windows(2) {
                    let (prev, cur) = (w[0], w[1]);
                    let diverge = cur
                        .iter()
                        .zip(prev.iter())
                        .position(|(a, b)| a != b)
                        .unwrap_or_else(|| prev.len().min(cur.len()).saturating_sub(1));
                    if let Some(t) = cur.get(diverge).or_else(|| cur.last()) {
                        targets.insert(*t);
                    }
                }
            }
        }
    }
    targets
}

/// The unit of work for one step, borrowed from the program.
#[derive(Clone, Copy)]
enum WorkItem<'a> {
    Inst(&'a Op),
    Term(&'a Terminator),
}

/// Runtime data pre-resolved for one interned provenance chain: what
/// the detector and the TICS timekeeper need at its collection, without
/// touching a chain-keyed map.
#[derive(Debug, Clone)]
pub(crate) struct ChainRt {
    /// The shared chain (what `Obs::Input` records).
    pub(crate) chain: Arc<Prov>,
    /// This collection's detector bit, if any policy tracks it.
    pub(crate) bit: Option<u32>,
    /// True when some freshness check reads this chain's timestamp —
    /// the only chains the TICS timekeeper needs to stamp. This is what
    /// keeps `chain_times` bounded: untracked dynamic chains are never
    /// stamped, so mitigation restarts cannot strand dead entries.
    pub(crate) timed: bool,
    /// Consistency checks firing at this collection, bits pre-resolved.
    pub(crate) checks: Arc<[ResolvedCheck]>,
}

/// Everything pre-resolved for one detector check site (a fresh-use
/// instruction): the §7.3 bit checks, the chains whose TICS timestamps
/// gate the use, and the variables whose taint the trace logger records.
#[derive(Debug, Clone, Default)]
pub(crate) struct UseSiteRt {
    /// Bit checks to run before the use.
    pub(crate) checks: Vec<ResolvedCheck>,
    /// Interned chains whose collection timestamps the TICS expiry
    /// check compares against the window.
    pub(crate) expiry_requires: Vec<ChainId>,
    /// Fresh-annotated variables whose dependencies are logged as
    /// [`Obs::Use`].
    pub(crate) fresh_vars: Vec<String>,
}

/// Pre-resolved per-sensor data: the interned name (one shared
/// allocation per sensor) and the environment's channel index.
#[derive(Debug, Clone)]
pub(crate) struct SensorRt {
    /// Interned sensor name (what the observation records).
    pub(crate) name: Arc<str>,
    /// The environment channel, pre-resolved.
    pub(crate) chan: Option<usize>,
}

/// The shared, read-only half of a [`Machine`]: everything resolved
/// once per (program, regions, policies, cost model, environment
/// shape) and then only read — the chain table, frame layouts, the
/// non-volatile layout, pre-resolved check sites, interned names, and
/// the lazily compiled program.
///
/// Build one with [`MachineCore::build`], wrap it in an [`Arc`], and
/// attach any number of devices via [`Machine::from_core`]. The fleet
/// driver shares a single core across all pool workers, so per-device
/// construction touches only [`DeviceState`].
pub struct MachineCore<'p> {
    pub(crate) p: &'p Program,
    pub(crate) policies: PolicySet,
    /// Per-function local slot layouts (shared with compiled frames).
    pub(crate) layouts: Arc<FrameLayouts>,
    /// The non-volatile address space: every cell's slot and the image
    /// each device starts from.
    pub(crate) nv: Arc<NvLayout>,
    /// Each region's eagerly logged ω set, as slots.
    pub(crate) region_omega: BTreeMap<RegionId, Vec<NvLoc>>,
    pub(crate) costs: CostModel,
    /// Interned provenance chains: every policy chain plus every
    /// statically-fixed input-site chain. Fixed after construction.
    pub(crate) chains: ChainTable,
    /// Pre-resolved per-chain runtime data, indexed by [`ChainId`].
    pub(crate) chain_rt: Vec<ChainRt>,
    /// Input sites whose call stack is fixed, pre-resolved to their
    /// interned chain (what the compile pass bakes into input steps).
    pub(crate) static_chain_of: BTreeMap<InstrRef, ChainId>,
    /// Pre-resolved detector check sites, keyed by use instruction.
    pub(crate) use_rt: BTreeMap<InstrRef, Arc<UseSiteRt>>,
    /// Interned sensor names + pre-resolved environment channels.
    pub(crate) sensor_rt: BTreeMap<String, SensorRt>,
    /// Interned output channel names.
    pub(crate) channel_names: BTreeMap<String, Arc<str>>,
    /// The channel layout `(name, index)` of the environment the core
    /// was built against. [`Machine::from_core`] validates device
    /// environments against it, because [`SensorRt::chan`] bakes these
    /// indexes into the input path.
    pub(crate) channels: Vec<(String, usize)>,
    /// Whole-program SSA facts (constant uses, dead defs, always-bound
    /// locals) the optimizing compile passes consume, indexed by
    /// [`ocelot_ir::ir::FuncId`]. Shared by every core
    /// [`MachineCore::for_environment`] derives.
    pub(crate) ssa: Arc<ProgramSsa>,
    /// True on a traced core ([`MachineCore::traced`]): machines record
    /// the `Obs` trace and both engines track every dependency set. A
    /// stats-only core observes no dependency set, so the compile pass
    /// evaluates its stores, arguments, returns and outputs value-only.
    pub(crate) traced: bool,
    /// Per-function always-bound locals (declared, never address-taken,
    /// every read dominated by a write): stores to these never reach
    /// non-volatile memory, so both backends bind the volatile slot
    /// instead of falling back to an NV cell. Indexed by function id.
    pub(crate) reclass: Arc<Vec<BTreeSet<String>>>,
    /// The compiled program shared by every injector-free device on
    /// this core, built once on the first compiled run. Machines with
    /// injector targets compile privately (injection sites are baked
    /// into steps).
    pub(crate) shared_compiled: OnceLock<Arc<CompiledProgram<'p>>>,
}

/// The per-device mutable half of a [`Machine`]: non-volatile memory,
/// the volatile stack, detector state, the observation log, clocks,
/// and statistics.
///
/// A `DeviceState` owns every allocation the hot path reuses (frame
/// pool, undo log, observation buffer), so a fleet worker can run
/// thousands of devices by recycling one state: [`Machine::into_device`]
/// returns it after a run and [`Machine::from_core`] resets it for the
/// next device with near-zero allocation.
pub struct DeviceState {
    pub(crate) nv: NvMem,
    pub(crate) vol: VolState,
    pub(crate) ctx: Ctx,
    pub(crate) bitvec: BitVector,
    pub(crate) obs: ObsLog,
    pub(crate) tau: u64,
    pub(crate) now_us: u64,
    pub(crate) era: u64,
    pub(crate) stats: Stats,
    /// Recycled call frames: `Ret` returns a frame's allocations here,
    /// the next call reuses them.
    pub(crate) frame_pool: Vec<Frame>,
    pub(crate) consecutive_reexecs: u64,
    pub(crate) livelocked: Option<RegionId>,
    /// Collection wall-clock time per interned chain (the NV timestamps
    /// TICS's timekeeping hardware provides), indexed by [`ChainId`].
    /// Only chains some freshness check actually reads are stamped, so
    /// the table stays at its construction size forever — the bounded
    /// replacement for the chain-keyed map that used to accumulate
    /// entries for dead dynamic chains across mitigation restarts.
    pub(crate) chain_times: Vec<Option<u64>>,
    pub(crate) expiry_restarts_this_run: u32,
    /// Pooled undo log: region entry takes it, commit returns it, so
    /// the log's capacity is reused instead of re-allocated per entry.
    pub(crate) spare_log: UndoLog,
    /// Pooled volatile snapshot: region entry and the JIT checkpoint
    /// copy the stack into it, commit and run resets return it, so a
    /// reboot reuses the snapshot's frames instead of boxing a clone.
    pub(crate) spare_snap: Option<Box<VolState>>,
    /// Dynamic consistency-check probes actually executed (detector
    /// check sites reached and resolved against the bit vector). Not
    /// part of [`Stats`]; both backends count it alike.
    pub(crate) checks_probed: u64,
    /// Scalar writes that reached non-volatile memory through the
    /// unbound-local fallback or a global store. Not part of [`Stats`];
    /// measures the store-reclassification fix.
    pub(crate) nv_scalar_writes: u64,
}

impl Default for DeviceState {
    fn default() -> Self {
        DeviceState {
            nv: NvMem::default(),
            vol: VolState::default(),
            ctx: Ctx::Jit(None),
            bitvec: BitVector::default(),
            obs: ObsLog::with_capacity(200_000),
            tau: 0,
            now_us: 0,
            era: 0,
            stats: Stats::default(),
            frame_pool: Vec::new(),
            consecutive_reexecs: 0,
            livelocked: None,
            chain_times: Vec::new(),
            expiry_restarts_this_run: 0,
            spare_log: UndoLog::default(),
            spare_snap: None,
            checks_probed: 0,
            nv_scalar_writes: 0,
        }
    }
}

impl DeviceState {
    /// Resets this state to what a fresh device on `core` starts from,
    /// keeping every reusable allocation: the NV memory becomes a copy
    /// of the core's initial image, written into the vectors already
    /// here, drained frames return to the pool, and the observation
    /// buffer and undo log keep their capacity. After this, the state
    /// is observationally identical to [`DeviceState::default`] attached
    /// to the same core, whatever program it ran before.
    pub(crate) fn reset_for(&mut self, core: &MachineCore<'_>) {
        self.nv.clone_from(core.nv.init());
        for f in self.vol.frames.drain(..) {
            if self.frame_pool.len() < 32 {
                self.frame_pool.push(f);
            }
        }
        self.release_ctx();
        self.bitvec.clear();
        self.obs.reset();
        self.tau = 0;
        self.now_us = 0;
        self.era = 0;
        self.stats = Stats::default();
        self.consecutive_reexecs = 0;
        self.livelocked = None;
        self.chain_times.clear();
        self.chain_times.resize(core.chains.len(), None);
        self.expiry_restarts_this_run = 0;
        self.checks_probed = 0;
        self.nv_scalar_writes = 0;
    }

    /// Returns to the boot JIT context, handing the open context's
    /// snapshot and undo log back to their pools.
    pub(crate) fn release_ctx(&mut self) {
        match std::mem::replace(&mut self.ctx, Ctx::Jit(None)) {
            Ctx::Jit(saved) => self.pool_snap(saved),
            Ctx::Atom { snap, mut log, .. } => {
                self.pool_snap(Some(snap));
                log.clear();
                self.spare_log = log;
            }
        }
    }

    /// Copies the live volatile stack into `into` (a context's previous
    /// snapshot) or else into the pooled snapshot box.
    fn snapshot_into(&mut self, into: Option<Box<VolState>>) -> Box<VolState> {
        let mut snap = into.or_else(|| self.spare_snap.take()).unwrap_or_default();
        (*snap).clone_from(&self.vol);
        snap
    }

    fn pool_snap(&mut self, snap: Option<Box<VolState>>) {
        if snap.is_some() {
            self.spare_snap = snap;
        }
    }
}

/// The intermittent execution machine: a shared read-only
/// [`MachineCore`] plus one device's [`DeviceState`], environment, and
/// power supply.
///
/// Fields are crate-visible: the compiled execution backend
/// (`crate::exec`) drives the same state through the same
/// checked/observable helpers, so the two backends cannot drift apart
/// on anything the paper's semantics observe.
pub struct Machine<'p> {
    pub(crate) core: Arc<MachineCore<'p>>,
    pub(crate) dev: DeviceState,
    pub(crate) env: Environment,
    pub(crate) supply: Box<dyn PowerSupply>,
    pub(crate) injector_targets: BTreeSet<InstrRef>,
    pub(crate) injector_fired: BTreeSet<InstrRef>,
    /// Consecutive same-region rollbacks after which a run reports
    /// [`RunOutcome::Livelock`] (`None` = roll back forever, the
    /// paper's baseline semantics).
    pub(crate) reexec_limit: Option<u64>,
    /// TICS mode: expiration window in µs checked at fresh-use sites
    /// against an RTC that keeps time across power failures.
    pub(crate) expiry_window: Option<u64>,
    /// Which engine `run_once` drives.
    pub(crate) backend: ExecBackend,
    /// The pre-resolved program, built lazily on the first compiled
    /// run and invalidated by builders that change what compilation
    /// bakes in (the injector target set). Injector-free machines
    /// share [`MachineCore::shared_compiled`].
    pub(crate) compiled: Option<Arc<CompiledProgram<'p>>>,
}

/// Mitigation restarts one run may spend before giving up and using the
/// stale value — models a TICS deployment whose charging gaps always
/// exceed the window (the handler would otherwise thrash forever).
const EXPIRY_RESTART_CAP: u32 = 25;

impl<'p> MachineCore<'p> {
    /// Pre-resolves everything shareable about a program: region ω
    /// sets, the interned chain table, per-chain and per-site detector
    /// data, sensor channels, and interned names.
    ///
    /// The core is **stats-only**: its machines keep every [`Stats`]
    /// counter, [`RunOutcome`], detector check and violation count, but
    /// build no observation trace, and the compiled engine evaluates
    /// every store, argument, return and output by value only (no
    /// dependency set is ever read). Call [`MachineCore::traced`] when a
    /// caller reads [`Machine::take_trace`].
    ///
    /// `p` must have passed [`ocelot_ir::validate()`], as every program
    /// from [`crate::build`] and [`ocelot_core::ocelot_transform`] has:
    /// both engines resolve every binding, argument, dereference,
    /// indexed access, sensor and output channel of such a program
    /// statically, and run no other. Debug builds assert it.
    ///
    /// `regions` supplies each region's checkpoint set `ω` (from
    /// [`ocelot_core::collect_regions`] over `p`, so it names declared
    /// globals only); `policies` configures the violation detectors
    /// (pass an empty set to disable detection). `env` is only
    /// inspected for its channel layout — the core records it and
    /// [`Machine::from_core`] checks each device's environment against
    /// it.
    pub fn build(
        p: &'p Program,
        regions: &[RegionInfo],
        policies: PolicySet,
        env: &Environment,
        costs: CostModel,
    ) -> Self {
        debug_assert!(
            ocelot_ir::validate(p).is_ok(),
            "MachineCore::build runs validated programs only: {:?}",
            ocelot_ir::validate(p)
        );
        let det_cfg = DetectorConfig::from_policies(&policies);
        let layouts = Arc::new(FrameLayouts::new(p));
        let nv = NvLayout::new(p);
        // Eagerly-logged set at region entry: the WAR locations, whose
        // pre-region values must be snapshotted before any read-then-
        // write corrupts them. EMW locations (written but never read
        // first) are logged dynamically on first write — the same split
        // prior work uses, and what keeps a write-only large structure
        // (cem's log table) off the eager checkpoint path.
        let mut region_omega = BTreeMap::new();
        for r in regions {
            let mut locs = Vec::new();
            for g in &r.effects.war {
                match p.global(g).and_then(|gl| gl.array_len) {
                    Some(n) => {
                        let slot = nv.array_slot(g);
                        locs.extend((0..n).map(|i| NvLoc::Cell(slot, i)));
                    }
                    None => locs.push(NvLoc::Scalar(nv.scalar_slot(g))),
                }
            }
            region_omega.insert(r.id, locs);
        }

        // Intern every chain the detector can ever key off (policy
        // chains), then every statically-fixed input-site chain. The
        // table is immutable afterwards: dynamic chains outside it
        // belong to no policy and need no runtime state.
        let mut chains = ChainTable::new();
        for chain in det_cfg.bit_of.keys() {
            chains.intern(chain.clone());
        }
        for checks in det_cfg
            .use_checks
            .values()
            .chain(det_cfg.input_checks.values())
        {
            for c in checks {
                for ch in &c.requires {
                    chains.intern(ch.clone());
                }
            }
        }
        let mut static_chain_of = BTreeMap::new();
        for (iref, chain) in ocelot_analysis::chains::static_input_chains(p) {
            static_chain_of.insert(iref, chains.intern(chain));
        }

        // Which chains the TICS timekeeper must stamp: exactly those a
        // freshness check compares against the window.
        let mut timed = vec![false; chains.len()];
        for checks in det_cfg.use_checks.values() {
            for c in checks {
                if c.kind == ViolationKind::Freshness {
                    for ch in &c.requires {
                        if let Some(id) = chains.lookup(ch) {
                            timed[id as usize] = true;
                        }
                    }
                }
            }
        }
        let chain_rt: Vec<ChainRt> = chains
            .iter()
            .map(|(id, arc)| {
                let resolved: Vec<ResolvedCheck> = det_cfg
                    .input_checks
                    .get(&**arc)
                    .map(|cs| cs.iter().map(|c| det_cfg.resolve(c)).collect())
                    .unwrap_or_default();
                ChainRt {
                    chain: Arc::clone(arc),
                    bit: det_cfg.bit_of.get(&**arc).map(|&b| b as u32),
                    timed: timed[id as usize],
                    checks: resolved.into(),
                }
            })
            .collect();

        // Pre-resolve every detector check site (bit checks + expiry
        // requires + fresh-use trace logging) into one map probe.
        let mut fresh_use_vars: BTreeMap<InstrRef, Vec<String>> = BTreeMap::new();
        for pol in policies.iter() {
            if pol.kind == PolicyKind::Fresh && !pol.is_vacuous() {
                if let Some(d) = pol.decls.first() {
                    for u in &pol.uses {
                        fresh_use_vars.entry(*u).or_default().push(d.var.clone());
                    }
                }
            }
        }
        let sites: BTreeSet<InstrRef> = det_cfg
            .use_checks
            .keys()
            .chain(fresh_use_vars.keys())
            .copied()
            .collect();
        let mut use_rt = BTreeMap::new();
        for site in sites {
            let src = det_cfg.use_checks.get(&site);
            let checks = src
                .map(|cs| cs.iter().map(|c| det_cfg.resolve(c)).collect())
                .unwrap_or_default();
            let expiry_requires = src
                .map(|cs| {
                    cs.iter()
                        .filter(|c| c.kind == ViolationKind::Freshness)
                        .flat_map(|c| c.requires.iter())
                        .filter_map(|ch| chains.lookup(ch))
                        .collect()
                })
                .unwrap_or_default();
            let fresh_vars = fresh_use_vars.remove(&site).unwrap_or_default();
            use_rt.insert(
                site,
                Arc::new(UseSiteRt {
                    checks,
                    expiry_requires,
                    fresh_vars,
                }),
            );
        }

        // One shared allocation per sensor / output channel name, and
        // the sensor's environment index resolved once.
        let mut sensor_rt: BTreeMap<String, SensorRt> = BTreeMap::new();
        let mut channel_names: BTreeMap<String, Arc<str>> = BTreeMap::new();
        for f in &p.funcs {
            for (_, inst) in f.iter_insts() {
                match &inst.op {
                    Op::Input { sensor, .. } => {
                        sensor_rt.entry(sensor.clone()).or_insert_with(|| SensorRt {
                            name: Arc::from(sensor.as_str()),
                            chan: env.channel_index(sensor),
                        });
                    }
                    Op::Output { channel, .. } => {
                        channel_names
                            .entry(channel.clone())
                            .or_insert_with(|| Arc::from(channel.as_str()));
                    }
                    _ => {}
                }
            }
        }

        let ssa = ProgramSsa::analyze(p);
        let reclass = Arc::new(ssa.funcs.iter().map(|fs| fs.always_bound.clone()).collect());

        MachineCore {
            p,
            policies,
            layouts,
            nv: Arc::new(nv),
            region_omega,
            costs,
            chains,
            chain_rt,
            static_chain_of,
            use_rt,
            sensor_rt,
            channel_names,
            channels: channel_layout(env),
            ssa: Arc::new(ssa),
            traced: false,
            reclass,
            shared_compiled: OnceLock::new(),
        }
    }

    /// This core for devices in `env`: equal to [`MachineCore::build`]
    /// with this core's program, regions, policies and costs and with
    /// `env`, and traced when this core is. Only the channel layout is
    /// resolved against `env`; everything else depends on the program
    /// alone and is copied or shared (the SSA facts), not recomputed —
    /// how a sweep builds one core per scenario of one program.
    pub fn for_environment(&self, env: &Environment) -> Self {
        let mut sensor_rt = self.sensor_rt.clone();
        for (name, rt) in &mut sensor_rt {
            rt.chan = env.channel_index(name);
        }
        MachineCore {
            p: self.p,
            policies: self.policies.clone(),
            layouts: Arc::clone(&self.layouts),
            nv: Arc::clone(&self.nv),
            region_omega: self.region_omega.clone(),
            costs: self.costs.clone(),
            chains: self.chains.clone(),
            chain_rt: self.chain_rt.clone(),
            static_chain_of: self.static_chain_of.clone(),
            use_rt: self.use_rt.clone(),
            sensor_rt,
            channel_names: self.channel_names.clone(),
            channels: channel_layout(env),
            ssa: Arc::clone(&self.ssa),
            traced: self.traced,
            reclass: Arc::clone(&self.reclass),
            shared_compiled: OnceLock::new(),
        }
    }

    /// Turns recording on: machines on the returned core build the
    /// committed observation trace ([`Machine::take_trace`]), and both
    /// engines track every dependency set the interpreter tracks, so an
    /// [`Obs`] record reads the same set on either, exactly as
    /// [`Machine::new`]'s machines do.
    pub fn traced(mut self) -> Self {
        self.traced = true;
        self
    }

    /// True when machines on this core record the observation trace.
    pub fn is_traced(&self) -> bool {
        self.traced
    }
}

/// The channel layout `(name, index)` of `env`.
fn channel_layout(env: &Environment) -> Vec<(String, usize)> {
    env.channels()
        .into_iter()
        .map(|ch| {
            let idx = env.channel_index(ch).expect("listed channel has an index");
            (ch.to_string(), idx)
        })
        .collect()
}

impl<'p> Machine<'p> {
    /// Creates a machine over a compiled program, on a traced core
    /// ([`MachineCore::traced`]): its observation trace is recorded.
    /// `p` must have passed [`ocelot_ir::validate()`] (see
    /// [`MachineCore::build`]).
    ///
    /// `regions` supplies each region's checkpoint set `ω` (from
    /// [`ocelot_core::collect_regions`]); `policies` configures the
    /// violation detectors (pass an empty set to disable detection).
    pub fn new(
        p: &'p Program,
        regions: &[RegionInfo],
        policies: PolicySet,
        env: Environment,
        costs: CostModel,
        supply: Box<dyn PowerSupply>,
    ) -> Self {
        let core = Arc::new(MachineCore::build(p, regions, policies, &env, costs).traced());
        Machine::from_core(core, DeviceState::default(), env, supply)
    }

    /// Attaches a device to a shared pre-resolved core: the cheap
    /// constructor the fleet driver uses to run many devices per core.
    ///
    /// `dev` is reset in place (allocations are kept), so recycling the
    /// state of a finished machine — via [`Machine::into_device`] —
    /// starts the next device from exactly the fresh-device state.
    ///
    /// # Panics
    ///
    /// Panics when `env`'s channel layout disagrees with the
    /// environment the core was built against: the core's pre-resolved
    /// sensor channels would silently read the wrong signals.
    pub fn from_core(
        core: Arc<MachineCore<'p>>,
        mut dev: DeviceState,
        env: Environment,
        supply: Box<dyn PowerSupply>,
    ) -> Self {
        let dev_channels = env.channels();
        assert_eq!(
            dev_channels.len(),
            core.channels.len(),
            "device environment and core disagree on channel count"
        );
        for (name, idx) in &core.channels {
            assert_eq!(
                env.channel_index(name),
                Some(*idx),
                "device environment disagrees with the core's channel layout for {name:?}"
            );
        }
        dev.reset_for(&core);
        Machine {
            core,
            dev,
            env,
            supply,
            injector_targets: BTreeSet::new(),
            injector_fired: BTreeSet::new(),
            reexec_limit: None,
            expiry_window: None,
            backend: ExecBackend::Interp,
            compiled: None,
        }
    }

    /// The shared read-only core this machine runs on.
    pub fn core(&self) -> &Arc<MachineCore<'p>> {
        &self.core
    }

    /// Tears the machine down, returning its per-device state so a
    /// pool can recycle the allocations for the next device.
    pub fn into_device(self) -> DeviceState {
        self.dev
    }

    /// Arms the pathological failure injector at `targets` (each fires
    /// once per run).
    pub fn with_injector(mut self, targets: BTreeSet<InstrRef>) -> Self {
        self.injector_targets = targets;
        // Injection sites are baked into compiled steps.
        self.compiled = None;
        self
    }

    /// Selects the execution engine: the instruction-at-a-time
    /// interpreter (the oracle) or the pre-resolved compiled backend.
    /// Both produce identical [`Stats`], observation traces, and
    /// [`RunOutcome`] sequences; the compiled backend is just faster.
    pub fn with_backend(mut self, backend: ExecBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The engine this machine runs on.
    pub fn backend(&self) -> ExecBackend {
        self.backend
    }

    /// Returns the machine unchanged: the compiled engine has one
    /// optimization level. Kept only for perfbench.
    pub fn with_opt(self, _opt: OptLevel) -> Self {
        self
    }

    /// Dynamic consistency-check probes executed so far (not part of
    /// [`Stats`]). Both backends probe every checked site they reach, so
    /// the count agrees between them.
    pub fn checks_probed(&self) -> u64 {
        self.dev.checks_probed
    }

    /// Scalar stores that reached non-volatile memory so far (globals
    /// plus any unbound-local fallback writes). Not part of [`Stats`].
    pub fn nv_scalar_writes(&self) -> u64 {
        self.dev.nv_scalar_writes
    }

    /// Reports [`RunOutcome::Livelock`] once a region rolls back `limit`
    /// times in a row without committing, instead of re-executing
    /// forever.
    pub fn with_reexec_limit(mut self, limit: u64) -> Self {
        self.reexec_limit = Some(limit);
        self
    }

    /// Enables the TICS-style execution model (§2.3): every fresh-use
    /// site checks that the value's inputs are at most `window_us` old
    /// on a clock that keeps time across power failures; expired values
    /// trigger a mitigation handler that restarts the run to re-collect.
    ///
    /// Temporal-consistency constraints have no expiry expression and
    /// remain unchecked by this mode — the paper's critique, measurable.
    pub fn with_expiry_window(mut self, window_us: u64) -> Self {
        self.expiry_window = Some(window_us);
        self
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> &Stats {
        &self.dev.stats
    }

    /// Takes the committed observation trace accumulated so far.
    ///
    /// # Panics
    ///
    /// Panics on a machine whose core is stats-only: it records no
    /// trace, and an empty one would pass any check vacuously. Build
    /// the core with [`MachineCore::traced`] (as [`Machine::new`] does).
    pub fn take_trace(&mut self) -> Vec<Obs> {
        assert!(
            self.core.is_traced(),
            "take_trace on a stats-only machine: build its core with MachineCore::traced()"
        );
        self.dev.obs.take()
    }

    /// Records the observation `build` makes, on a traced core only: a
    /// stats-only machine never builds the record. Reboots bypass
    /// region buffering (they are exactly what aborts the buffer).
    pub(crate) fn observe(&mut self, build: impl FnOnce(&Self) -> Obs) {
        if !self.core.is_traced() {
            return;
        }
        let o = build(self);
        if matches!(o, Obs::Reboot { .. }) {
            self.dev.obs.push_unbuffered(o);
        } else {
            self.dev.obs.push(o);
        }
    }

    /// The policies this machine checks.
    pub fn policies(&self) -> &PolicySet {
        &self.core.policies
    }

    /// Runs `main` once to completion (or until `max_steps`).
    pub fn run_once(&mut self, max_steps: u64) -> RunOutcome {
        let _span = ocelot_telemetry::span!("execute", "device");
        self.reset_run();
        if self.backend == ExecBackend::Compiled {
            return self.run_once_compiled(max_steps);
        }
        let violations_before = self.dev.stats.violations;
        let mut steps = 0u64;
        loop {
            steps += 1;
            if steps > max_steps {
                return RunOutcome::StepLimit;
            }
            if self.step() {
                return self.complete_run(violations_before);
            }
            if let Some(region) = self.dev.livelocked {
                return RunOutcome::Livelock { region };
            }
        }
    }

    /// Resets per-run state (both backends share this preamble).
    pub(crate) fn reset_run(&mut self) {
        self.restart_main();
        self.dev.release_ctx();
        self.injector_fired.clear();
        self.dev.consecutive_reexecs = 0;
        self.dev.livelocked = None;
        self.dev.expiry_restarts_this_run = 0;
    }

    /// Books a completed run and reports whether it violated.
    pub(crate) fn complete_run(&mut self, violations_before: u64) -> RunOutcome {
        self.dev.stats.runs_completed += 1;
        let violated = self.dev.stats.violations > violations_before;
        if violated {
            self.dev.stats.runs_with_violation += 1;
        }
        RunOutcome::Completed { violated }
    }

    /// Runs the program back-to-back until `sim_duration_us` of
    /// simulated time has elapsed (the paper's fixed-wall-clock
    /// methodology for Table 2(b)). Returns the number of completed
    /// runs.
    pub fn run_for(&mut self, sim_duration_us: u64, max_steps_per_run: u64) -> u64 {
        let deadline = self.dev.now_us + sim_duration_us;
        let mut runs = 0;
        while self.dev.now_us < deadline {
            match self.run_once(max_steps_per_run) {
                RunOutcome::Completed { .. } => runs += 1,
                RunOutcome::StepLimit | RunOutcome::Livelock { .. } => break,
            }
        }
        runs
    }

    // ------------------------------------------------------------------
    // Stepping
    // ------------------------------------------------------------------

    /// Executes one instruction or terminator. Returns true when the
    /// program run completed.
    fn step(&mut self) -> bool {
        let Some(top) = self.dev.vol.top() else {
            return true;
        };
        let (top_func, top_block, top_index) = (top.func, top.block, top.index);
        let p: &'p Program = self.core.p;
        let func = p.func(top_func);
        let block = func.block(top_block);
        let at_term = top_index >= block.instrs.len();
        let label = if at_term {
            block.term_label
        } else {
            block.instrs[top_index].label
        };
        let here = InstrRef {
            func: func.id,
            label,
        };

        // 1. Pathological injection: power fails immediately before the
        //    targeted operation (once per run).
        if self.injector_targets.contains(&here) && !self.injector_fired.contains(&here) {
            self.injector_fired.insert(here);
            self.power_fail();
            return false;
        }

        // 2. Pay for the operation; energy exhaustion fails *before* the
        //    operation takes effect.
        let work = if at_term {
            WorkItem::Term(&block.term)
        } else {
            WorkItem::Inst(&block.instrs[top_index].op)
        };
        let cycles = match work {
            WorkItem::Term(t) => self.core.costs.price(Priced::Term(t), Facts::default()),
            WorkItem::Inst(op) => self.op_cost(op),
        };
        match work {
            WorkItem::Inst(Op::Input { .. }) => self.dev.stats.breakdown.input += cycles,
            WorkItem::Inst(Op::Output { .. }) => self.dev.stats.breakdown.output += cycles,
            WorkItem::Inst(Op::AtomStart { .. }) => {
                self.dev.stats.breakdown.checkpoint += cycles;
            }
            _ => self.dev.stats.breakdown.compute += cycles,
        }
        if self.charge(cycles) == PowerEvent::LowPower {
            self.power_fail();
            return false;
        }

        // 3. Detector checks at this site (§7.3): bits are inspected
        //    before the operation executes. In TICS mode an expired
        //    value triggers the mitigation handler instead of the use.
        if self.run_checks(here) {
            self.mitigation_restart();
            return false;
        }

        // 4. Execute.
        self.dev.tau += 1;
        self.dev.stats.instructions += 1;
        match work {
            WorkItem::Term(term) => self.exec_terminator(term),
            WorkItem::Inst(op) => {
                self.exec_op(here, op);
                false
            }
        }
    }

    /// Cycles `op` costs in the current machine state: the shared
    /// [`CostModel::price`] over the facts this state decides. Both
    /// backends' state-dependent steps are charged here.
    pub(crate) fn op_cost(&self, op: &Op) -> u64 {
        let facts = match op {
            Op::Assign { place, .. } => Facts::store(self.store_is_nv(place), false),
            Op::AtomStart { region } => Facts::entry(self.region_entry(*region)),
            // The callee's body is charged as it runs.
            _ => Facts::default(),
        };
        self.core.costs.price(Priced::Op(op), facts)
    }

    /// Whether a store to `place` in the current frame hits non-volatile
    /// memory: an unbound destination or a reference into a global does.
    /// The undo-log word is charged separately, on the first logged
    /// write ([`Machine::nv_write_scalar`]).
    fn store_is_nv(&self, place: &Place) -> bool {
        match place {
            // Always-bound locals (every read dominated by a write) bind
            // their volatile slot on first store instead of leaking to
            // NV — the store-reclassification fix. This is also what the
            // WCET analysis assumes when it prices declared-local stores
            // as volatile.
            Place::Var(x) if !self.is_local(x) => !self.reclassified_local(x),
            Place::Var(_) => false,
            Place::Index(..) => true,
            Place::Deref(x) => matches!(self.ref_target(x), RefTarget::Global(_)),
        }
    }

    /// How entering `region` is priced: a counter bump when already
    /// atomic (Atom-Start-Inner), otherwise the checkpoint of the live
    /// volatile state plus the eager ω log.
    fn region_entry(&self, region: RegionId) -> Entry {
        if matches!(self.dev.ctx, Ctx::Atom { .. }) {
            Entry::Nested
        } else {
            Entry::Outer {
                volatile_words: self.dev.vol.words(),
                omega_words: self
                    .core
                    .region_omega
                    .get(&region)
                    .map(|l| l.len())
                    .unwrap_or(0),
            }
        }
    }

    pub(crate) fn charge(&mut self, cycles: u64) -> PowerEvent {
        self.dev.stats.on_cycles += cycles;
        let us = self.core.costs.cycles_to_us(cycles);
        self.dev.now_us += us;
        self.dev.stats.on_time_us += us;
        self.supply.consume(self.core.costs.cycles_to_nj(cycles))
    }

    /// Charges time/cycles for shutdown-path work (checkpoint) from the
    /// comparator reserve: time passes but no further LowPower can fire.
    pub(crate) fn charge_reserve(&mut self, cycles: u64) {
        self.dev.stats.on_cycles += cycles;
        let us = self.core.costs.cycles_to_us(cycles);
        self.dev.now_us += us;
        self.dev.stats.on_time_us += us;
    }

    pub(crate) fn record_violations(&mut self, events: Vec<crate::detect::ViolationEvent>) {
        for ev in events {
            self.dev.stats.violations += 1;
            match ev.kind {
                ViolationKind::Freshness => self.dev.stats.fresh_violations += 1,
                ViolationKind::Consistency => self.dev.stats.consistency_violations += 1,
            }
            self.observe(|_| Obs::Violation(ev));
        }
    }

    /// Runs the per-site detectors. Returns true when a TICS expiry
    /// check tripped and the mitigation handler should run *instead of*
    /// this operation. One pre-resolved map probe covers the expiry
    /// check, the bit checks, and the fresh-use trace logging.
    pub(crate) fn run_checks(&mut self, here: InstrRef) -> bool {
        let Some(rt) = self.core.use_rt.get(&here) else {
            return false;
        };
        let rt = Arc::clone(rt);
        self.dev.checks_probed += 1;
        ocelot_telemetry::metrics::CHECKS_EXECUTED.incr();
        // TICS expiry check precedes the use: a tripped check prevents
        // the stale use (no violation) at the cost of a handler run.
        if self.expiry_check_trips(&rt) {
            self.dev.stats.expiry_trips += 1;
            if self.dev.expiry_restarts_this_run < EXPIRY_RESTART_CAP {
                return true;
            }
            // The handler already thrashed this run: proceed with the
            // stale value (a real deployment would drop the sample or
            // hang; either way the constraint is not met).
            self.dev.stats.expiry_giveups += 1;
        }
        if !rt.checks.is_empty() {
            let events = self
                .dev
                .bitvec
                .run_resolved(&rt.checks, here, self.dev.tau, self.dev.era);
            self.record_violations(events);
        }
        // Record an `Obs::Use` (with dynamic taint) for each
        // fresh-annotated variable at this site, for the formal trace
        // checker.
        for var in &rt.fresh_vars {
            self.observe(|m| Obs::Use {
                at: here,
                tau: m.dev.tau,
                time_us: m.dev.now_us,
                era: m.dev.era,
                deps: m.read_var(var).deps,
            });
        }
        false
    }

    /// True when TICS mode is on and any input collection this site
    /// depends on (by interned chain) is older than the window.
    fn expiry_check_trips(&self, rt: &UseSiteRt) -> bool {
        let Some(window) = self.expiry_window else {
            return false;
        };
        rt.expiry_requires
            .iter()
            .any(|&id| match self.dev.chain_times[id as usize] {
                Some(collected) => self.dev.now_us.saturating_sub(collected) > window,
                // No surviving timestamp: treat as expired.
                None => true,
            })
    }

    /// The TICS mitigation handler: abandon the current run and restart
    /// `main` so every input is re-collected. Aborts any open atomic
    /// region first (its partial NV writes roll back).
    ///
    /// Chain timestamps need no pruning here: only interned chains are
    /// ever stamped (`chain_times` is a fixed-size table), so a restart
    /// cannot strand entries for dead dynamic chains — the re-collected
    /// inputs simply overwrite their slots.
    pub(crate) fn mitigation_restart(&mut self) {
        ocelot_telemetry::metrics::MITIGATION_RESTARTS.incr();
        self.dev.stats.expiry_restarts += 1;
        self.dev.expiry_restarts_this_run += 1;
        if let Ctx::Atom { log, .. } = &self.dev.ctx {
            log.apply(&mut self.dev.nv);
            self.dev.obs.abort_region();
            self.dev.release_ctx();
        }
        self.restart_main();
    }

    /// Resets the volatile stack to a fresh `main` frame at its entry,
    /// recycling the stack's frames.
    fn restart_main(&mut self) {
        while let Some(f) = self.dev.vol.frames.pop() {
            self.recycle_frame(f);
        }
        let (layouts, main) = (&self.core.layouts, self.core.p.main);
        let frame = match self.dev.frame_pool.pop() {
            Some(mut f) => {
                f.reuse_at_entry(layouts, main);
                f
            }
            None => Frame::at_entry(layouts, main),
        };
        self.dev.vol.frames.push(frame);
    }

    /// The dynamic provenance chain ending at `input_ref`: the call
    /// sites of every frame above `main`, then the input instruction.
    pub(crate) fn dynamic_chain(&self, input_ref: InstrRef) -> Prov {
        ocelot_telemetry::metrics::CHAIN_REBUILDS.incr();
        let mut chain: Vec<InstrRef> = self
            .dev
            .vol
            .frames
            .iter()
            .skip(1)
            .filter_map(|f| f.call_site)
            .collect();
        chain.push(input_ref);
        chain
    }

    // ------------------------------------------------------------------
    // Power failure handling (Appendix H)
    // ------------------------------------------------------------------

    pub(crate) fn power_fail(&mut self) {
        match &mut self.dev.ctx {
            Ctx::Jit(saved) => {
                // JIT-LowPower: checkpoint volatile state from the
                // comparator reserve, then shut down.
                let words = self.dev.vol.words();
                let prev = saved.take();
                let snap = self.dev.snapshot_into(prev);
                self.dev.ctx = Ctx::Jit(Some(snap));
                self.dev.stats.jit_checkpoints += 1;
                self.dev.stats.ckpt_words += words as u64;
                let c = self.core.costs.checkpoint_cycles(words);
                self.dev.stats.breakdown.checkpoint += c;
                self.charge_reserve(c);
            }
            Ctx::Atom { .. } => {
                // Atom-LowPower: shut down immediately; the region-entry
                // context is already saved.
            }
        }
        // Off / charging.
        let off = self.supply.recharge();
        self.dev.now_us += off;
        self.dev.stats.off_time_us += off;
        self.dev.stats.reboots += 1;
        ocelot_telemetry::metrics::REBOOTS.incr();
        self.dev.bitvec.clear();
        self.observe(|m| Obs::Reboot {
            off_us: off,
            ended_era: m.dev.era,
        });
        self.dev.era += 1;

        // Reboot.
        match &mut self.dev.ctx {
            Ctx::Jit(saved) => {
                match saved {
                    Some(snap) => self.dev.vol.clone_from(snap),
                    // Boot context: restart the program run.
                    None => self.restart_main(),
                }
                let words = self.dev.vol.words();
                let c = self.core.costs.restore_cycles(words);
                self.dev.stats.breakdown.restore += c;
                self.charge_reserve(c);
            }
            Ctx::Atom {
                snap,
                log,
                natom,
                region,
            } => {
                // Atom-Reboot: N ◁ L, restore snapshot, natom := 0.
                log.apply(&mut self.dev.nv);
                *natom = 0;
                self.dev.vol.clone_from(snap);
                self.dev.obs.abort_region();
                self.dev.obs.begin_region();
                self.dev.stats.region_reexecs += 1;
                self.dev.consecutive_reexecs += 1;
                if let Some(limit) = self.reexec_limit {
                    if self.dev.consecutive_reexecs >= limit {
                        self.dev.livelocked = Some(*region);
                    }
                }
                let words = self.dev.vol.words() + log.words();
                let c = self.core.costs.restore_cycles(words);
                self.dev.stats.breakdown.restore += c;
                self.charge_reserve(c);
            }
        }
    }

    // ------------------------------------------------------------------
    // Operation execution
    // ------------------------------------------------------------------

    fn exec_op(&mut self, here: InstrRef, op: &Op) {
        match op {
            Op::Skip | Op::Annot { .. } => {
                self.advance();
            }
            Op::Bind { var, src } => {
                let v = self.eval(src);
                self.bind_local(var, v);
                self.advance();
            }
            Op::Assign { place, src } => {
                let v = self.eval(src);
                self.write_place(place, v);
                self.advance();
            }
            Op::Input { var, sensor } => {
                self.exec_input(here, var, sensor);
            }
            Op::Call { dst, callee, args } => {
                self.exec_call(here, dst.as_deref(), *callee, args);
            }
            Op::Output { channel, args } => {
                // The oracle evaluates every argument with its taint on
                // either kind of core; only the record is traced-only.
                let vals: Vec<Tainted> = args.iter().map(|e| self.eval(e)).collect();
                self.observe(|m| {
                    let mut deps = crate::memory::Deps::new();
                    for v in &vals {
                        deps.extend(v.deps.iter().copied());
                    }
                    Obs::Output {
                        at: here,
                        tau: m.dev.tau,
                        era: m.dev.era,
                        channel: Arc::clone(&m.core.channel_names[channel.as_str()]),
                        values: vals.iter().map(|v| v.value).collect(),
                        deps,
                    }
                });
                self.dev.stats.outputs += 1;
                self.advance();
            }
            Op::AtomStart { region } => {
                // Advance first: the saved continuation `c` resumes
                // *after* `startatom` (Appendix H), so rollback re-runs
                // the region body, not the marker.
                self.advance();
                self.atom_start(*region);
            }
            Op::AtomEnd { region } => {
                self.atom_end(*region);
                self.advance();
            }
        }
    }

    /// Binds the declared local `var` in the top frame.
    pub(crate) fn bind_local(&mut self, var: &str, v: Tainted) {
        let top = self.dev.vol.top_mut().expect("frame exists");
        top.set_slot(self.core.layouts.local(top.func, var), v);
    }

    /// Executes one input operation on the interpreter: resolves the
    /// destination slot, the sensor channel, and the chain dynamically,
    /// then runs the shared collection core.
    pub(crate) fn exec_input(&mut self, here: InstrRef, var: &str, sensor: &str) {
        let func = self.dev.vol.top().expect("frame exists").func;
        let slot = self.core.layouts.local(func, var);
        let chan = self.core.sensor_rt[sensor].chan;
        let chain = self.dynamic_chain(here);
        let id = self.core.chains.lookup(&chain);
        let sensor_name = |m: &Self| Arc::clone(&m.core.sensor_rt[sensor].name);
        self.input_core(here, slot, sensor_name, chan, id, Some(chain));
    }

    /// The collection core both backends share: sample, taint, stamp,
    /// run the consistency checks of this collection, set its bit,
    /// record the observation, and advance. For an interned chain every
    /// piece is a pre-resolved index; an uninterned chain belongs to no
    /// policy, so only the observation remains. A sensor the
    /// environment lacks (`chan` is `None`) reads 0, as
    /// [`Environment::sample`] does. `sensor_name` supplies the interned
    /// name the observation records, and is called only on a traced
    /// core.
    pub(crate) fn input_core(
        &mut self,
        here: InstrRef,
        slot: u32,
        sensor_name: impl FnOnce(&Self) -> Arc<str>,
        chan: Option<usize>,
        id: Option<ChainId>,
        dyn_chain: Option<Prov>,
    ) {
        let value = match chan {
            Some(i) => self.env.sample_index(i, self.dev.now_us),
            None => 0,
        };
        let t = Tainted::input(value, self.dev.tau);
        self.dev
            .vol
            .top_mut()
            .expect("frame exists")
            .set_slot(slot, t);
        // A chain outside the table tracks no policy: no bit, no
        // checks, no timestamp — the observation still records it.
        if let Some(id) = id {
            let rt = &self.core.chain_rt[id as usize];
            let bit = rt.bit;
            if rt.timed && self.expiry_window.is_some() {
                // TICS's timekeeping hardware: stamp the collection.
                self.dev.chain_times[id as usize] = Some(self.dev.now_us);
            }
            // Consistency checks fire at the collection, before its
            // own bit is set (§7.3).
            if !rt.checks.is_empty() {
                let events =
                    self.dev
                        .bitvec
                        .run_resolved(&rt.checks, here, self.dev.tau, self.dev.era);
                self.record_violations(events);
            }
            if let Some(b) = bit {
                self.dev.bitvec.set_bit(b as usize);
            }
        }
        self.observe(|m| Obs::Input {
            at: here,
            tau: m.dev.tau,
            time_us: m.dev.now_us,
            era: m.dev.era,
            sensor: sensor_name(m),
            value,
            chain: match id {
                Some(id) => Arc::clone(&m.core.chain_rt[id as usize].chain),
                None => Arc::new(dyn_chain.expect("uninterned chains carry their dynamic rebuild")),
            },
        });
        self.advance();
    }

    pub(crate) fn atom_start(&mut self, region: RegionId) {
        match &mut self.dev.ctx {
            Ctx::Jit(saved) => {
                // Atom-Start-Outer: snapshot volatiles, eagerly log ω.
                // The pooled log keeps its capacity across entries; the
                // ω set is iterated in place with pre-resolved slots.
                let mut log = std::mem::take(&mut self.dev.spare_log);
                let mut new_words = 0u64;
                if let Some(locs) = self.core.region_omega.get(&region) {
                    for &loc in locs {
                        if log.save(loc, self.dev.nv.read_loc(loc)) {
                            new_words += 1;
                        }
                    }
                }
                self.dev.stats.log_words += new_words;
                // The JIT checkpoint is superseded: its box takes the
                // region-entry snapshot.
                let prev = saved.take();
                let snap = self.dev.snapshot_into(prev);
                self.dev.stats.region_entries += 1;
                self.dev.stats.ckpt_words += self.dev.vol.words() as u64;
                self.dev.obs.begin_region();
                self.dev.ctx = Ctx::Atom {
                    snap,
                    log,
                    natom: 0,
                    region,
                };
            }
            Ctx::Atom { natom, .. } => {
                // Atom-Start-Inner.
                *natom += 1;
            }
        }
    }

    pub(crate) fn atom_end(&mut self, _region: RegionId) {
        let commit = match &mut self.dev.ctx {
            Ctx::Atom { natom, region, .. } => {
                if *natom > 0 {
                    // Atom-End-Inner.
                    *natom -= 1;
                    None
                } else {
                    Some(*region)
                }
            }
            Ctx::Jit(_) => {
                // endatom outside a region: no-op (validation pairs a
                // function's regions by count, not along every path).
                None
            }
        };
        if let Some(rid) = commit {
            // Atom-End-Outer: commit, and pool the log's capacity for
            // the next region entry.
            self.observe(|m| Obs::Commit {
                region: rid,
                tau: m.dev.tau,
            });
            self.dev.obs.commit_region();
            self.dev.stats.region_commits += 1;
            self.dev.consecutive_reexecs = 0;
            self.dev.release_ctx();
        }
    }

    pub(crate) fn exec_call(
        &mut self,
        here: InstrRef,
        dst: Option<&str>,
        callee: FuncId,
        args: &[Arg],
    ) {
        let caller_idx = self.dev.vol.frames.len() - 1;
        let caller_func = self.dev.vol.frames[caller_idx].func;
        let layouts = Arc::clone(&self.core.layouts);
        let ret_dst = dst.map(|d| layouts.local(caller_func, d));
        let callee_layout = layouts.layout(callee);
        let mut frame = self.take_frame(
            callee,
            callee_layout.entry,
            callee_layout.len(),
            ret_dst,
            here,
        );
        for (a, bind) in args.iter().zip(callee_layout.params()) {
            match (a, bind) {
                (Arg::Value(e), ParamBind::Value(slot)) => frame.set_slot(*slot, self.eval(e)),
                (Arg::Ref(x), ParamBind::Ref(name)) => {
                    let target = self.resolve_ref(caller_idx, x);
                    frame.refs.insert(Arc::clone(name), target);
                }
                _ => unreachable!("validated calls match argument and parameter kinds"),
            }
        }
        // Resume point: after the call.
        self.advance();
        self.dev.vol.frames.push(frame);
    }

    /// A fresh frame for a call, reusing a recycled frame's
    /// allocations when one is pooled.
    pub(crate) fn take_frame(
        &mut self,
        func: FuncId,
        entry: ocelot_ir::BlockId,
        nslots: usize,
        ret_dst: Option<u32>,
        call_site: InstrRef,
    ) -> Frame {
        match self.dev.frame_pool.pop() {
            Some(mut f) => {
                f.reuse(func, entry, nslots, ret_dst, call_site);
                f
            }
            None => Frame::for_call(func, entry, nslots, ret_dst, call_site),
        }
    }

    /// Returns a popped frame's allocations to the pool.
    pub(crate) fn recycle_frame(&mut self, frame: Frame) {
        if self.dev.frame_pool.len() < 32 {
            self.dev.frame_pool.push(frame);
        }
    }

    pub(crate) fn exec_terminator(&mut self, term: &Terminator) -> bool {
        match term {
            Terminator::Jump(b) => {
                let top = self.dev.vol.top_mut().expect("frame exists");
                top.block = *b;
                top.index = 0;
                false
            }
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                let v = self.eval(cond);
                let top = self.dev.vol.top_mut().expect("frame exists");
                top.block = if v.value != 0 { *then_bb } else { *else_bb };
                top.index = 0;
                false
            }
            Terminator::Ret(e) => {
                let v = e
                    .as_ref()
                    .map(|e| self.eval(e))
                    .unwrap_or_else(|| Tainted::pure(0));
                let done = self.dev.vol.frames.pop().expect("frame exists");
                let ret_dst = done.ret_dst;
                self.recycle_frame(done);
                match self.dev.vol.top_mut() {
                    Some(caller) => {
                        if let Some(s) = ret_dst {
                            caller.set_slot(s, v);
                        }
                        false
                    }
                    None => true, // main returned
                }
            }
        }
    }

    pub(crate) fn advance(&mut self) {
        let top = self.dev.vol.top_mut().expect("frame exists");
        top.index += 1;
    }

    // ------------------------------------------------------------------
    // Values and memory
    // ------------------------------------------------------------------

    /// True when `name` is an always-bound local of the current frame's
    /// function (declared, never address-taken, no read can observe its
    /// uninitialized entry value). Stores to these bind the volatile
    /// slot even when it is not yet bound on this path — they can never
    /// be read before a write, so the non-volatile fallback the
    /// unbound-store path used to take was pure overhead (and leaked
    /// the value into a same-named global's NV cell).
    pub(crate) fn reclassified_local(&self, name: &str) -> bool {
        match self.dev.vol.top() {
            Some(f) => self.core.reclass[f.func.0 as usize].contains(name),
            None => false,
        }
    }

    /// True when `name` is a bound local of the current frame.
    pub(crate) fn is_local(&self, name: &str) -> bool {
        let Some(f) = self.dev.vol.top() else {
            return false;
        };
        self.core
            .layouts
            .slot(f.func, name)
            .is_some_and(|slot| f.get_slot(slot).is_some())
    }

    /// The target of the current frame's by-ref parameter `name`, bound
    /// by the call that created the frame.
    pub(crate) fn ref_target(&self, name: &str) -> RefTarget {
        self.dev.vol.top().expect("frame exists").refs[name]
    }

    pub(crate) fn resolve_ref(&self, caller_idx: usize, x: &str) -> RefTarget {
        let caller = &self.dev.vol.frames[caller_idx];
        if let Some(t) = caller.refs.get(x) {
            return *t; // forwarding an incoming reference
        }
        if let Some(slot) = self.core.layouts.slot(caller.func, x) {
            if caller.get_slot(slot).is_some() {
                return RefTarget::Local {
                    frame: caller_idx,
                    slot,
                };
            }
        }
        RefTarget::Global(self.core.nv.scalar_slot(x))
    }

    pub(crate) fn read_var(&self, name: &str) -> Tainted {
        if let Some(top) = self.dev.vol.top() {
            if let Some(slot) = self.core.layouts.slot(top.func, name) {
                if let Some(v) = top.get_slot(slot) {
                    return v.clone();
                }
            }
            if let Some(t) = top.refs.get(name) {
                return self.read_target(*t);
            }
        }
        // A global or an unbound local; a name with no cell (a fresh
        // variable read outside the function declaring it) reads as an
        // untainted 0, as a never-written cell would.
        match self.core.nv.scalar(name) {
            Some(s) => self.dev.nv.read_slot(s),
            None => Tainted::default(),
        }
    }

    pub(crate) fn read_target(&self, t: RefTarget) -> Tainted {
        match t {
            RefTarget::Local { frame, slot } => self.dev.vol.frames[frame]
                .get_slot(slot)
                .cloned()
                .unwrap_or_default(),
            RefTarget::Global(s) => self.dev.nv.read_slot(s),
        }
    }

    pub(crate) fn write_target(&mut self, t: RefTarget, v: Tainted) {
        match t {
            RefTarget::Local { frame, slot } => self.dev.vol.frames[frame].set_slot(slot, v),
            RefTarget::Global(s) => self.nv_write_scalar(s, v),
        }
    }

    /// Writes the non-volatile scalar cell at `slot`, undo-logging the
    /// pre-write value inside an atomic region and charging the dynamic
    /// log-write cost on a fresh entry: the one path behind both
    /// backends' scalar NV stores.
    pub(crate) fn nv_write_scalar(&mut self, slot: usize, v: Tainted) {
        self.dev.nv_scalar_writes += 1;
        let old = self.dev.nv.write_slot(slot, v);
        if let Ctx::Atom { log, .. } = &mut self.dev.ctx {
            if log.save(NvLoc::Scalar(slot), old) {
                self.dev.stats.log_words += 1;
                let c = self.core.costs.log_word;
                // Dynamic log writes cost cycles too.
                self.dev.stats.on_cycles += c;
                self.dev.stats.breakdown.undo_log += c;
                let us = self.core.costs.cycles_to_us(c);
                self.dev.now_us += us;
                self.dev.stats.on_time_us += us;
            }
        }
    }

    /// Undo-logs a write of cell `cell` of the array at `slot` (both
    /// backends' shared path).
    pub(crate) fn log_cell_undo(&mut self, slot: usize, cell: usize, old: Tainted) {
        if let Ctx::Atom { log, .. } = &mut self.dev.ctx {
            if log.save(NvLoc::Cell(slot, cell), old) {
                self.dev.stats.log_words += 1;
            }
        }
    }

    pub(crate) fn write_place(&mut self, place: &Place, v: Tainted) {
        match place {
            Place::Var(x) => {
                let func = self.dev.vol.top().expect("frame exists").func;
                let slot = self.core.layouts.slot(func, x);
                let top = self.dev.vol.top_mut().expect("frame exists");
                if let Some(s) = slot {
                    if top.get_slot(s).is_some() {
                        top.set_slot(s, v);
                        return;
                    }
                }
                if let Some(s) =
                    slot.filter(|_| self.core.reclass[func.0 as usize].contains(x.as_str()))
                {
                    // Always-bound local: bind the slot (see
                    // [`Machine::reclassified_local`]); never NV.
                    top.set_slot(s, v);
                } else {
                    // A global, or an in-scope but unbound local.
                    self.nv_write_scalar(self.core.nv.scalar_slot(x), v);
                }
            }
            Place::Index(a, i) => {
                let idx = self.eval(i);
                let s = self.core.nv.array_slot(a);
                let (cell, old) = self.dev.nv.write_idx_slot(s, idx.value, v);
                self.log_cell_undo(s, cell, old);
            }
            Place::Deref(x) => {
                self.write_target(self.ref_target(x), v);
            }
        }
    }

    pub(crate) fn eval(&self, e: &Expr) -> Tainted {
        match e {
            Expr::Int(n) => Tainted::pure(*n),
            Expr::Bool(b) => Tainted::pure(*b as i64),
            Expr::Var(x) => self.read_var(x),
            Expr::Deref(x) => self.read_target(self.ref_target(x)),
            Expr::Ref(_) => Tainted::pure(0), // only valid in call args
            Expr::Index(a, i) => {
                let idx = self.eval(i);
                let mut v = self
                    .dev
                    .nv
                    .read_idx_slot(self.core.nv.array_slot(a), idx.value);
                v.deps.extend(idx.deps);
                v
            }
            Expr::Binary(op, l, r) => {
                let a = self.eval(l);
                let b = self.eval(r);
                let value = eval_binop(*op, a.value, b.value);
                Tainted::combine(value, &a, &b)
            }
            Expr::Unary(op, x) => {
                let a = self.eval(x);
                let value = match op {
                    UnOp::Neg => a.value.wrapping_neg(),
                    UnOp::Not => (a.value == 0) as i64,
                };
                Tainted {
                    value,
                    deps: a.deps,
                }
            }
        }
    }
}

pub(crate) fn eval_binop(op: BinOp, a: i64, b: i64) -> i64 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        BinOp::Rem => {
            if b == 0 {
                0
            } else {
                a.wrapping_rem(b)
            }
        }
        BinOp::Eq => (a == b) as i64,
        BinOp::Ne => (a != b) as i64,
        BinOp::Lt => (a < b) as i64,
        BinOp::Le => (a <= b) as i64,
        BinOp::Gt => (a > b) as i64,
        BinOp::Ge => (a >= b) as i64,
        BinOp::And => (a != 0 && b != 0) as i64,
        BinOp::Or => (a != 0 || b != 0) as i64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_hw::power::{ContinuousPower, ScriptedPower};
    use ocelot_hw::sensors::Signal;
    use ocelot_ir::compile;

    fn machine_for<'p>(
        p: &'p Program,
        env: Environment,
        supply: Box<dyn PowerSupply>,
    ) -> Machine<'p> {
        let regions = ocelot_core::collect_regions(p).unwrap();
        let taint = ocelot_analysis::taint::TaintAnalysis::run(p);
        let policies = ocelot_core::build_policies(p, &taint);
        Machine::new(p, &regions, policies, env, CostModel::default(), supply)
    }

    fn outputs(trace: &[Obs]) -> Vec<(String, Vec<i64>)> {
        trace
            .iter()
            .filter_map(|o| match o {
                Obs::Output {
                    channel, values, ..
                } => Some((channel.to_string(), values.clone())),
                _ => None,
            })
            .collect()
    }

    /// Builds a core over `src`, which lowers but fails validation.
    #[cfg(debug_assertions)]
    fn build_unvalidated(src: &str) {
        let p = compile(src).unwrap();
        assert!(ocelot_ir::validate(&p).is_err());
        MachineCore::build(
            &p,
            &[],
            PolicySet::default(),
            &Environment::new(),
            CostModel::default(),
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "validated programs only")]
    fn build_rejects_a_value_argument_to_a_reference_parameter() {
        build_unvalidated("fn f(&r) { *r = 1; } fn main() { let x = 0; f(x); }");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "validated programs only")]
    fn build_rejects_recursion() {
        build_unvalidated("fn main() { main(); }");
    }

    #[test]
    fn machine_is_send() {
        // The parallel bench harness moves whole machines (program refs,
        // boxed supply, environment, detector state) onto pool workers;
        // this fails to compile if any component loses `Send`.
        fn assert_send<T: Send>() {}
        assert_send::<Machine<'static>>();
        assert_send::<RunOutcome>();
        assert_send::<Stats>();
    }

    #[test]
    fn computes_arithmetic_continuously() {
        let p = compile("fn sq(v) { return v * v; } fn main() { let x = sq(6); out(log, x + 1); }")
            .unwrap();
        let mut m = machine_for(&p, Environment::new(), Box::new(ContinuousPower));
        assert!(matches!(
            m.run_once(100_000),
            RunOutcome::Completed { violated: false }
        ));
        let t = m.take_trace();
        assert_eq!(outputs(&t), vec![("log".to_string(), vec![37])]);
    }

    #[test]
    fn samples_environment_at_wall_clock() {
        let p = compile("sensor s; fn main() { let v = in(s); out(log, v); }").unwrap();
        let env = Environment::new().with("s", Signal::Constant(42));
        let mut m = machine_for(&p, env, Box::new(ContinuousPower));
        m.run_once(100_000);
        let t = m.take_trace();
        assert_eq!(outputs(&t), vec![("log".to_string(), vec![42])]);
    }

    #[test]
    fn by_ref_params_write_back() {
        let p = compile(
            r#"
            fn put(&dst, v) { *dst = v + 1; }
            fn main() { let x = 0; put(&x, 9); out(log, x); }
            "#,
        )
        .unwrap();
        let mut m = machine_for(&p, Environment::new(), Box::new(ContinuousPower));
        m.run_once(100_000);
        assert_eq!(
            outputs(&m.take_trace()),
            vec![("log".to_string(), vec![10])]
        );
    }

    #[test]
    fn globals_persist_across_runs() {
        let p = compile("nv count = 0; fn main() { count = count + 1; out(log, count); }").unwrap();
        let mut m = machine_for(&p, Environment::new(), Box::new(ContinuousPower));
        m.run_once(100_000);
        m.run_once(100_000);
        let t = m.take_trace();
        assert_eq!(
            outputs(&t),
            vec![("log".to_string(), vec![1]), ("log".to_string(), vec![2])]
        );
    }

    #[test]
    fn while_loop_runs_until_condition_fails() {
        let p = compile(
            "nv g = 5; fn main() { let sum = 0; while g > 0 { sum = sum + g; g = g - 1; } out(log, sum); }",
        )
        .unwrap();
        let mut m = machine_for(&p, Environment::new(), Box::new(ContinuousPower));
        m.run_once(100_000);
        assert_eq!(
            outputs(&m.take_trace()),
            vec![("log".to_string(), vec![15])]
        );
    }

    #[test]
    fn while_loop_survives_power_failures() {
        // The loop decrements NV state; JIT checkpoints mid-loop must
        // not double-count iterations.
        let p = compile(
            "nv g = 6; fn main() { let sum = 0; while g > 0 { sum = sum + 1; g = g - 1; } out(log, sum); }",
        )
        .unwrap();
        let budgets = vec![40.0; 50];
        let mut m = machine_for(
            &p,
            Environment::new(),
            Box::new(ScriptedPower::new(budgets, 500)),
        );
        let out = m.run_once(1_000_000);
        assert!(matches!(out, RunOutcome::Completed { .. }), "{out:?}");
        assert_eq!(outputs(&m.take_trace()), vec![("log".to_string(), vec![6])]);
        assert!(m.stats().reboots > 0, "failures really happened");
    }

    #[test]
    fn while_true_hits_the_step_limit_not_a_hang() {
        let p = compile("nv g = 0; fn main() { while true { g = g + 1; } }").unwrap();
        let mut m = machine_for(&p, Environment::new(), Box::new(ContinuousPower));
        assert_eq!(m.run_once(5_000), RunOutcome::StepLimit);
    }

    #[test]
    fn repeat_loop_executes_n_times() {
        let p = compile(
            "sensor s; fn main() { let sum = 0; repeat 4 { let v = in(s); sum = sum + v; } out(log, sum); }",
        )
        .unwrap();
        let env = Environment::new().with("s", Signal::Constant(3));
        let mut m = machine_for(&p, env, Box::new(ContinuousPower));
        m.run_once(100_000);
        assert_eq!(
            outputs(&m.take_trace()),
            vec![("log".to_string(), vec![12])]
        );
    }

    #[test]
    fn jit_failure_resumes_in_place() {
        // Fail once mid-run; JIT checkpoint + restore must produce the
        // same output as continuous execution.
        let p =
            compile("fn main() { let a = 1; let b = a + 1; let c = b * 3; out(log, c); }").unwrap();
        // Budget: enough for ~2 instructions, then one failure, then ∞.
        let mut m = machine_for(
            &p,
            Environment::new(),
            Box::new(ScriptedPower::new(vec![12.0], 1000)),
        );
        let out = m.run_once(100_000);
        assert!(matches!(out, RunOutcome::Completed { .. }));
        assert_eq!(outputs(&m.take_trace()), vec![("log".to_string(), vec![6])]);
        assert_eq!(m.stats().reboots, 1);
        assert_eq!(m.stats().jit_checkpoints, 1);
    }

    #[test]
    fn atomic_region_rolls_back_nv_writes() {
        // The region increments g; power fails inside the region; after
        // rollback and re-execution g must have been incremented exactly
        // once.
        let p = compile(
            r#"
            nv g = 0;
            sensor s;
            fn main() {
                atomic {
                    let v = in(s);
                    g = g + 1;
                }
                out(log, g);
            }
            "#,
        )
        .unwrap();
        // Fail while the region is sampling: region entry costs ~600
        // cycles and the input 4000, so a 2000 nJ budget dies mid-input.
        let env = Environment::new().with("s", Signal::Constant(1));
        let mut m = machine_for(&p, env, Box::new(ScriptedPower::new(vec![2000.0], 1000)));
        m.run_once(1_000_000);
        assert_eq!(outputs(&m.take_trace()), vec![("log".to_string(), vec![1])]);
        assert_eq!(m.stats().region_reexecs, 1);
        assert_eq!(m.stats().region_commits, 1);
    }

    #[test]
    fn nested_manual_regions_flatten() {
        let p = compile(
            r#"
            nv g = 0;
            fn main() {
                atomic {
                    g = g + 1;
                    atomic { g = g + 10; }
                    g = g + 100;
                }
                out(log, g);
            }
            "#,
        )
        .unwrap();
        let mut m = machine_for(&p, Environment::new(), Box::new(ContinuousPower));
        m.run_once(100_000);
        assert_eq!(
            outputs(&m.take_trace()),
            vec![("log".to_string(), vec![111])]
        );
        assert_eq!(m.stats().region_entries, 1, "inner start is a counter bump");
        assert_eq!(m.stats().region_commits, 1);
    }

    #[test]
    fn detector_catches_jit_freshness_violation() {
        // Classic Figure 2: sense, power fail (pathological), then use.
        let p = compile("sensor s; fn main() { let x = in(s); fresh(x); out(alarm, x); }").unwrap();
        let taint = ocelot_analysis::taint::TaintAnalysis::run(&p);
        let policies = ocelot_core::build_policies(&p, &taint);
        let targets = pathological_targets(&policies);
        assert_eq!(targets.len(), 1);
        let m = Machine::new(
            &p,
            &[],
            policies,
            Environment::new().with("s", Signal::Constant(5)),
            CostModel::default(),
            Box::new(ContinuousPower),
        );
        let mut m = m.with_injector(targets);
        let out = m.run_once(1_000_000);
        assert!(matches!(out, RunOutcome::Completed { violated: true }));
        assert_eq!(m.stats().fresh_violations, 1);
        // The formal trace checker agrees.
        let trace = m.take_trace();
        let formal = crate::detect::check_trace(m.policies(), &trace);
        assert_eq!(formal.len(), 1);
    }

    #[test]
    fn ocelot_region_prevents_the_same_violation() {
        let src = "sensor s; fn main() { let x = in(s); fresh(x); out(alarm, x); }";
        let p = compile(src).unwrap();
        let compiled = ocelot_core::ocelot_transform(p).unwrap();
        let targets = pathological_targets(&compiled.policies);
        let m = Machine::new(
            &compiled.program,
            &compiled.regions,
            compiled.policies.clone(),
            Environment::new().with("s", Signal::Constant(5)),
            CostModel::default(),
            Box::new(ContinuousPower),
        );
        let mut m = m.with_injector(targets);
        let out = m.run_once(1_000_000);
        assert!(
            matches!(out, RunOutcome::Completed { violated: false }),
            "atomic region re-executes the input: no stale use"
        );
        assert_eq!(
            m.stats().region_reexecs,
            1,
            "the injected failure rolled back"
        );
        let trace = m.take_trace();
        assert!(crate::detect::check_trace(m.policies(), &trace).is_empty());
    }

    #[test]
    fn consistency_violation_detected_and_prevented() {
        let src = r#"
            sensor a; sensor b;
            fn main() {
                let x = in(a);
                consistent(x, 1);
                let y = in(b);
                consistent(y, 1);
                out(log, x, y);
            }
        "#;
        // JIT: injected failure between the two inputs → violation.
        let p = compile(src).unwrap();
        let taint = ocelot_analysis::taint::TaintAnalysis::run(&p);
        let policies = ocelot_core::build_policies(&p, &taint);
        let targets = pathological_targets(&policies);
        let m = Machine::new(
            &p,
            &[],
            policies,
            Environment::new(),
            CostModel::default(),
            Box::new(ContinuousPower),
        );
        let mut m = m.with_injector(targets.clone());
        m.run_once(1_000_000);
        assert_eq!(m.stats().consistency_violations, 1);

        // Ocelot: same injection, no violation.
        let p2 = compile(src).unwrap();
        let compiled = ocelot_core::ocelot_transform(p2).unwrap();
        let targets2 = pathological_targets(&compiled.policies);
        let m2 = Machine::new(
            &compiled.program,
            &compiled.regions,
            compiled.policies,
            Environment::new(),
            CostModel::default(),
            Box::new(ContinuousPower),
        );
        let mut m2 = m2.with_injector(targets2);
        let out = m2.run_once(1_000_000);
        assert!(matches!(out, RunOutcome::Completed { violated: false }));
    }

    #[test]
    fn reexec_limit_reports_livelock() {
        // The region needs two 4 µJ samples per attempt; every power
        // cycle supplies ~5 µJ, so the region re-executes forever.
        let p = compile(
            r#"
            sensor s;
            fn main() {
                atomic {
                    let a = in(s);
                    let b = in(s);
                    out(log, a + b);
                }
            }
            "#,
        )
        .unwrap();
        let budgets = vec![5_000.0; 500];
        let mut m = machine_for(
            &p,
            Environment::new().with("s", Signal::Constant(1)),
            Box::new(ScriptedPower::new(budgets, 1_000)),
        )
        .with_reexec_limit(10);
        let out = m.run_once(1_000_000);
        assert!(matches!(out, RunOutcome::Livelock { .. }), "{out:?}");
        assert!(m.stats().region_reexecs >= 10);
        assert_eq!(m.stats().region_commits, 0);
    }

    #[test]
    fn generous_budget_never_trips_reexec_limit() {
        let p = compile("sensor s; fn main() { atomic { let v = in(s); out(log, v); } }").unwrap();
        let mut m =
            machine_for(&p, Environment::new(), Box::new(ContinuousPower)).with_reexec_limit(1);
        assert!(matches!(
            m.run_once(1_000_000),
            RunOutcome::Completed { violated: false }
        ));
    }

    #[test]
    fn tics_expiry_prevents_stale_use_via_restart() {
        // Figure 2 under TICS: power fails between the sense and the
        // use; the 10 ms window sees the 100 ms gap, the handler
        // restarts, and the re-collected value is used fresh.
        let p = compile("sensor s; fn main() { let x = in(s); fresh(x); out(alarm, x); }").unwrap();
        let taint = ocelot_analysis::taint::TaintAnalysis::run(&p);
        let policies = ocelot_core::build_policies(&p, &taint);
        let targets = pathological_targets(&policies);
        let m = Machine::new(
            &p,
            &[],
            policies,
            Environment::new().with("s", Signal::Constant(5)),
            CostModel::default(),
            Box::new(ScriptedPower::new(vec![f64::INFINITY], 100_000)),
        );
        let mut m = m.with_injector(targets).with_expiry_window(10_000);
        let out = m.run_once(1_000_000);
        assert!(
            matches!(out, RunOutcome::Completed { violated: false }),
            "{out:?}: the handler re-collects instead of using stale data"
        );
        assert_eq!(m.stats().expiry_trips, 1);
        assert_eq!(m.stats().expiry_restarts, 1);
        assert_eq!(m.stats().violations, 0);
    }

    #[test]
    fn tics_expiry_cannot_express_consistency() {
        // The same mitigation machinery is useless for a consistent
        // pair: no use-site window exists, so the split pair commits.
        let p = compile(
            r#"
            sensor a; sensor b;
            fn main() {
                let x = in(a);
                consistent(x, 1);
                let y = in(b);
                consistent(y, 1);
                out(log, x, y);
            }
            "#,
        )
        .unwrap();
        let taint = ocelot_analysis::taint::TaintAnalysis::run(&p);
        let policies = ocelot_core::build_policies(&p, &taint);
        let targets = pathological_targets(&policies);
        let m = Machine::new(
            &p,
            &[],
            policies,
            Environment::new(),
            CostModel::default(),
            Box::new(ContinuousPower),
        );
        // Even a 1 µs paranoid window cannot help.
        let mut m = m.with_injector(targets).with_expiry_window(1);
        let out = m.run_once(1_000_000);
        assert!(matches!(out, RunOutcome::Completed { violated: true }));
        assert_eq!(m.stats().consistency_violations, 1);
        assert_eq!(m.stats().expiry_restarts, 0, "no fresh use ever trips");
    }

    #[test]
    fn tics_thrashing_gives_up_after_the_cap() {
        // Every power cycle delivers just enough for the sample but dies
        // before the use; the 100 ms gap always exceeds the 10 ms
        // window, so the handler thrashes until the cap, then the stale
        // value goes through and the detector fires.
        let p = compile("sensor s; fn main() { let x = in(s); fresh(x); out(alarm, x); }").unwrap();
        let taint = ocelot_analysis::taint::TaintAnalysis::run(&p);
        let policies = ocelot_core::build_policies(&p, &taint);
        let m = Machine::new(
            &p,
            &[],
            policies,
            Environment::new().with("s", Signal::Constant(5)),
            CostModel::default(),
            Box::new(ScriptedPower::new(vec![4_500.0; 200], 100_000)),
        );
        let mut m = m.with_expiry_window(10_000);
        let out = m.run_once(10_000_000);
        assert!(
            matches!(out, RunOutcome::Completed { violated: true }),
            "{out:?}"
        );
        assert_eq!(m.stats().expiry_giveups, 1);
        assert!(m.stats().expiry_restarts >= 25, "thrashed to the cap");
        assert!(m.stats().fresh_violations >= 1, "the stale use happened");
    }

    #[test]
    fn tics_chain_timestamps_stay_bounded_across_restarts() {
        // Regression for the unbounded-growth bug: timestamps live in a
        // fixed-size table indexed by interned chain id, and only chains
        // some freshness check reads are ever stamped — so hundreds of
        // mitigation restarts (which reset the frames and re-collect
        // through fresh dynamic chains) cannot grow the timekeeper
        // state.
        let p = compile(
            r#"
            sensor s;
            fn grab() { let v = in(s); return v; }
            fn main() {
                let warm = grab();
                let x = in(s);
                fresh(x);
                out(alarm, x + warm);
            }
            "#,
        )
        .unwrap();
        let taint = ocelot_analysis::taint::TaintAnalysis::run(&p);
        let policies = ocelot_core::build_policies(&p, &taint);
        let m = Machine::new(
            &p,
            &[],
            policies,
            Environment::new().with("s", Signal::Constant(5)),
            CostModel::default(),
            // 4.5 µJ per cycle: a 4 µJ sample and the 1.6 µJ use can
            // never share one power cycle, so every attempt trips the
            // window and the handler restarts until the per-run cap.
            Box::new(ScriptedPower::new(vec![4_500.0; 2000], 100_000)),
        );
        let mut m = m.with_expiry_window(10_000);
        let before = m.dev.chain_times.len();
        for _ in 0..8 {
            m.run_once(10_000_000);
        }
        assert!(m.stats().expiry_restarts >= 100, "restarts really thrashed");
        assert!(m.stats().expiry_giveups >= 1, "runs gave up at the cap");
        assert_eq!(
            m.dev.chain_times.len(),
            before,
            "timestamp table never grows past its construction size"
        );
        let stamped = m.dev.chain_times.iter().filter(|t| t.is_some()).count();
        let timed = m.core.chain_rt.iter().filter(|rt| rt.timed).count();
        assert!(
            stamped <= timed,
            "only freshness-checked chains are ever stamped ({stamped} > {timed})"
        );
        assert!(stamped > 0, "the checked chain was stamped");
    }

    #[test]
    fn static_input_sites_share_one_interned_chain() {
        // A fixed call stack: the input's chain is pre-resolved, so
        // every sample's observation shares one Arc with the table.
        let p = compile(
            r#"
            sensor s;
            fn read() { let v = in(s); return v; }
            fn main() { let a = read(); fresh(a); out(log, a); }
            "#,
        )
        .unwrap();
        let taint = ocelot_analysis::taint::TaintAnalysis::run(&p);
        let policies = ocelot_core::build_policies(&p, &taint);
        let mut m = Machine::new(
            &p,
            &[],
            policies,
            Environment::new().with("s", Signal::Constant(2)),
            CostModel::default(),
            Box::new(ContinuousPower),
        );
        assert_eq!(
            m.core.static_chain_of.len(),
            1,
            "the one input site is static"
        );
        m.run_once(100_000);
        m.run_once(100_000);
        let trace = m.take_trace();
        let chains: Vec<_> = trace
            .iter()
            .filter_map(|o| match o {
                Obs::Input { chain, .. } => Some(chain),
                _ => None,
            })
            .collect();
        assert_eq!(chains.len(), 2);
        assert!(
            Arc::ptr_eq(chains[0], chains[1]),
            "both samples share the interned chain allocation"
        );
        assert_eq!(chains[0].len(), 2, "call site + input op");
    }

    #[test]
    fn run_for_counts_completed_runs() {
        let p = compile("fn main() { let x = 1; out(log, x); }").unwrap();
        let mut m = machine_for(&p, Environment::new(), Box::new(ContinuousPower));
        let runs = m.run_for(10_000, 100_000);
        assert!(
            runs > 1,
            "short program should complete many runs, got {runs}"
        );
        assert_eq!(m.stats().runs_completed, runs);
    }

    #[test]
    fn harvested_power_interleaves_on_and_off() {
        let p = compile(
            "sensor s; fn main() { let acc = 0; repeat 20 { let v = in(s); acc = acc + v; } out(log, acc); }",
        )
        .unwrap();
        let env = Environment::new().with("s", Signal::Constant(1));
        let supply = ocelot_hw::power::HarvestedPower::capybara_powercast();
        let mut m = machine_for(&p, env, Box::new(supply));
        let out = m.run_once(10_000_000);
        assert!(matches!(out, RunOutcome::Completed { .. }));
        // 20 inputs at 4000 cycles ≈ 80 µJ > 46 µJ budget: at least one
        // failure must have occurred, and charging time dominates.
        assert!(m.stats().reboots >= 1);
        assert!(m.stats().off_time_us > m.stats().on_time_us);
        assert_eq!(
            outputs(&m.take_trace()),
            vec![("log".to_string(), vec![20])]
        );
    }
}
