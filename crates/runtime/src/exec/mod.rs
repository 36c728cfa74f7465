//! Execution backends: the interpreter oracle and the compiled engine.
//!
//! The paper's evaluation simulates millions of instruction steps per
//! (benchmark, model, seed) cell. The interpreter in
//! [`crate::machine`] re-dispatches every step through nested matches
//! on the IR — cloning the operation, re-deriving its cycle cost, and
//! probing three `BTreeMap`s (injector targets, detector check sites,
//! fresh-use logging) that are almost always empty at the current site.
//!
//! The compiled backend removes all of that from the hot path by
//! resolving it **once per program**:
//!
//! * every instruction is pre-matched into a `compile::Action` with
//!   non-volatile cells resolved to [`crate::memory::NvLayout`] slots
//!   and expressions lowered to a pre-classified form
//!   (`compile::CExpr`);
//! * cycle costs and their µs conversions are pre-computed wherever the
//!   interpreter's cost is static (everything except `startatom`'s
//!   state-dependent checkpoint and stores through references);
//! * detector/fresh-use check sites and injector targets become
//!   per-step booleans, so unchecked steps skip the lookups entirely;
//! * maximal runs of "pure compute" steps are pre-grouped into
//!   *batches* whose per-instruction energy draws are handed to the
//!   supply in one [`ocelot_hw::power::PowerSupply::consume_run`] call
//!   per segment. The supply makes the same draws in the same order and
//!   reports which one tripped the comparator, so batching is exact on
//!   every supply: a power failure lands on the same instruction as in
//!   the interpreter;
//! * an SSA middle-end folds constants, straightens constant branches
//!   and shrinks dead stores; branch conditions and store indices are
//!   evaluated by value only, with no taint temporary built, and so is
//!   every source on a stats-only core (see
//!   [`crate::machine::MachineCore::build`]), where every dependency
//!   set is unobservable. A traced core tracks every other set.
//!
//! The seam between the backends is semantic, not structural: anything
//! *checked or observable* — inputs, outputs, detector checks, region
//! entry/commit/rollback, checkpoints, power failure, TICS mitigation —
//! runs through the same [`crate::machine::Machine`] helpers in both
//! engines, over the same machine state. The differential suites in
//! `ocelot-bench` hold the two backends to identical
//! [`crate::stats::Stats`], observation traces, and
//! [`crate::machine::RunOutcome`] sequences.

pub(crate) mod compile;
mod run;

pub(crate) use compile::CompiledProgram;

/// Which engine a [`crate::machine::Machine`] drives its runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecBackend {
    /// The instruction-at-a-time interpreter — the semantics oracle.
    #[default]
    Interp,
    /// The pre-resolved engine compiled by the `compile` pass:
    /// identical observable behavior, no per-step map lookups or op
    /// matching.
    Compiled,
}

impl ExecBackend {
    /// Stable lowercase name, used by CLI flags and persisted bench
    /// artifacts.
    pub fn name(&self) -> &'static str {
        match self {
            ExecBackend::Interp => "interp",
            ExecBackend::Compiled => "compiled",
        }
    }

    /// Inverse of [`ExecBackend::name`], for tooling that reads backend
    /// names back from flags or artifacts.
    pub fn parse(name: &str) -> Option<ExecBackend> {
        match name {
            "interp" => Some(ExecBackend::Interp),
            "compiled" => Some(ExecBackend::Compiled),
            _ => None,
        }
    }

    /// Both backends, interpreter (oracle) first.
    pub fn all() -> [ExecBackend; 2] {
        [ExecBackend::Interp, ExecBackend::Compiled]
    }
}

/// The compiled engine's one optimization level. Kept only for
/// perfbench, which names `OptLevel::O2`; nothing reads it.
#[derive(Debug, Clone, Copy)]
pub enum OptLevel {
    /// The compiled engine's behaviour: its SSA middle-end always runs.
    O2,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_round_trip() {
        for b in ExecBackend::all() {
            assert_eq!(ExecBackend::parse(b.name()), Some(b));
        }
        assert_eq!(ExecBackend::parse("jit"), None);
        assert_eq!(ExecBackend::default(), ExecBackend::Interp);
    }
}
