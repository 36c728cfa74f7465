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
//!   globals resolved to [`crate::memory::NvMem`] slots and expressions
//!   lowered to a pre-classified form (`compile::CExpr`);
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
//! * at O2, local stores and branch conditions whose dependency sets
//!   are provably empty or unobservable are evaluated by value only,
//!   with no taint temporary built.
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

/// How aggressively the compile pass optimizes. Every level produces
/// byte-identical [`crate::stats::Stats`], observation traces, and
/// [`crate::machine::RunOutcome`] sequences — optimization only removes
/// host-side work (taint bookkeeping, expression walking, check probes
/// whose outcome is statically known), never simulated cycles, time, or
/// observations. The interpreter ignores the level entirely: it is the
/// unoptimized oracle every level is differentially tested against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum OptLevel {
    /// Direct 1:1 compilation of the lowered IR.
    O0,
    /// SSA-driven constant propagation and folding, constant-branch
    /// straightening, dead-store shrinking, taint-free evaluation of
    /// expressions whose dependency sets are provably empty or
    /// unobservable, and elision of dynamic check probes that are
    /// dominated by the collections they require.
    #[default]
    O2,
}

impl OptLevel {
    /// Stable numeric name (`"0"`/`"2"`), used by `--opt` and
    /// persisted nowhere (artifacts are opt-level independent by
    /// construction).
    pub fn name(&self) -> &'static str {
        match self {
            OptLevel::O0 => "0",
            OptLevel::O2 => "2",
        }
    }

    /// Inverse of [`OptLevel::name`].
    pub fn parse(name: &str) -> Option<OptLevel> {
        match name {
            "0" => Some(OptLevel::O0),
            "2" => Some(OptLevel::O2),
            _ => None,
        }
    }

    /// All levels, unoptimized first.
    pub fn all() -> [OptLevel; 2] {
        [OptLevel::O0, OptLevel::O2]
    }

    /// Dense index for per-level caches.
    pub(crate) fn index(&self) -> usize {
        *self as usize
    }

    /// The CI knob: reads `OCELOT_OPT`. Unset (or set to the empty
    /// string) means the default level; a non-empty value must be
    /// `0` or `2`. Test suites that exercise the compiled backend at
    /// "whatever level CI asked for" construct their machines with this.
    ///
    /// An invalid non-empty value **aborts the process** (exit code 2)
    /// with a message naming the accepted values: silently falling back
    /// to the default would make a CI matrix typo like `OCELOT_OPT=O2`
    /// vacuously test the default level instead of the requested one.
    pub fn from_env() -> OptLevel {
        match Self::level_from_env_value(std::env::var("OCELOT_OPT").ok().as_deref()) {
            Ok(level) => level,
            Err(msg) => {
                eprintln!("error: {msg}");
                std::process::exit(2);
            }
        }
    }

    /// The decision behind [`OptLevel::from_env`], factored over the
    /// raw variable value so the rejection is testable without racing
    /// other threads on the process environment.
    pub fn level_from_env_value(value: Option<&str>) -> Result<OptLevel, String> {
        match value {
            None | Some("") => Ok(OptLevel::default()),
            Some(v) => OptLevel::parse(v).ok_or_else(|| {
                format!(
                    "invalid OCELOT_OPT value `{v}`: accepted values are \
                     `0` or `2` (or unset for the default level)"
                )
            }),
        }
    }
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

    #[test]
    fn opt_level_names_round_trip() {
        for (i, o) in OptLevel::all().into_iter().enumerate() {
            assert_eq!(OptLevel::parse(o.name()), Some(o));
            assert_eq!(o.index(), i);
        }
        assert_eq!(OptLevel::parse("1"), None, "O1 was folded into O2");
        assert_eq!(OptLevel::parse("3"), None);
        assert_eq!(OptLevel::default(), OptLevel::O2);
    }

    #[test]
    fn env_level_accepts_unset_empty_and_valid_values() {
        assert_eq!(OptLevel::level_from_env_value(None), Ok(OptLevel::O2));
        assert_eq!(OptLevel::level_from_env_value(Some("")), Ok(OptLevel::O2));
        for o in OptLevel::all() {
            assert_eq!(OptLevel::level_from_env_value(Some(o.name())), Ok(o));
        }
    }

    #[test]
    fn env_level_rejects_unparsable_values_naming_the_accepted_ones() {
        for bad in ["O2", "1", "3", "fast", " 2", "two"] {
            let err = OptLevel::level_from_env_value(Some(bad))
                .expect_err("an invalid non-empty OCELOT_OPT must not fall back silently");
            assert!(err.contains(bad), "names the offending value: {err}");
            assert!(
                err.contains("`0` or `2`"),
                "names the accepted values: {err}"
            );
        }
    }
}
