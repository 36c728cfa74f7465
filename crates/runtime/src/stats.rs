//! Execution statistics: the measurements behind Figures 7–8 and
//! Table 2, and their JSON wire form ([`stats_to_json`]).

use ocelot_telemetry::json::Json;

/// Counters accumulated by a [`crate::machine::Machine`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Active CPU cycles.
    pub on_cycles: u64,
    /// Active wall-clock time in µs.
    pub on_time_us: u64,
    /// Off/charging wall-clock time in µs.
    pub off_time_us: u64,
    /// Power failures survived.
    pub reboots: u64,
    /// JIT checkpoints taken (at low-power interrupts in JIT mode).
    pub jit_checkpoints: u64,
    /// Atomic regions entered (outermost only).
    pub region_entries: u64,
    /// Atomic regions committed.
    pub region_commits: u64,
    /// Atomic region re-executions after in-region failures.
    pub region_reexecs: u64,
    /// Words written to undo logs.
    pub log_words: u64,
    /// Words of volatile state checkpointed.
    pub ckpt_words: u64,
    /// Output operations committed.
    pub outputs: u64,
    /// Detector violations (total).
    pub violations: u64,
    /// Freshness violations.
    pub fresh_violations: u64,
    /// Temporal-consistency violations.
    pub consistency_violations: u64,
    /// Completed program runs.
    pub runs_completed: u64,
    /// Completed runs containing at least one violation.
    pub runs_with_violation: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// TICS-mode expiry checks that tripped (the value's age exceeded
    /// the window at a use site).
    pub expiry_trips: u64,
    /// TICS-mode mitigation handlers run (the run restarted to
    /// re-collect inputs).
    pub expiry_restarts: u64,
    /// TICS-mode trips that exceeded the per-run mitigation cap and
    /// proceeded with the stale value anyway.
    pub expiry_giveups: u64,
    /// Cycle breakdown by category.
    pub breakdown: Breakdown,
}

/// Where the active cycles went — the denominators of the overhead
/// figures.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Plain compute: ALU, branches, calls.
    pub compute: u64,
    /// Sensor sampling.
    pub input: u64,
    /// Output operations (UART/radio).
    pub output: u64,
    /// Volatile checkpoints: JIT low-power saves and region-entry
    /// snapshots.
    pub checkpoint: u64,
    /// Undo-log writes (eager ω plus dynamic first-writes).
    pub undo_log: u64,
    /// Restores after reboot (volatile state, log application).
    pub restore: u64,
}

impl Breakdown {
    /// Total accounted cycles.
    pub fn total(&self) -> u64 {
        self.compute + self.input + self.output + self.checkpoint + self.undo_log + self.restore
    }

    /// Every counter as a `(name, value)` pair, in declaration order —
    /// the serialization surface used by the bench harness's persisted
    /// result artifacts. Adding a field here (and to [`Breakdown`])
    /// keeps serializers from silently drifting out of sync.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("compute", self.compute),
            ("input", self.input),
            ("output", self.output),
            ("checkpoint", self.checkpoint),
            ("undo_log", self.undo_log),
            ("restore", self.restore),
        ]
    }

    /// Sets the counter called `name`; returns `false` for unknown
    /// names (deserializers treat that as a schema mismatch).
    pub fn set_counter(&mut self, name: &str, value: u64) -> bool {
        let slot = match name {
            "compute" => &mut self.compute,
            "input" => &mut self.input,
            "output" => &mut self.output,
            "checkpoint" => &mut self.checkpoint,
            "undo_log" => &mut self.undo_log,
            "restore" => &mut self.restore,
            _ => return false,
        };
        *slot = value;
        true
    }
}

impl Stats {
    /// Every scalar counter as a `(name, value)` pair, in declaration
    /// order ([`Breakdown`] is exposed separately via
    /// [`Breakdown::counters`]). This is the stable serialization
    /// surface for persisted bench artifacts.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("on_cycles", self.on_cycles),
            ("on_time_us", self.on_time_us),
            ("off_time_us", self.off_time_us),
            ("reboots", self.reboots),
            ("jit_checkpoints", self.jit_checkpoints),
            ("region_entries", self.region_entries),
            ("region_commits", self.region_commits),
            ("region_reexecs", self.region_reexecs),
            ("log_words", self.log_words),
            ("ckpt_words", self.ckpt_words),
            ("outputs", self.outputs),
            ("violations", self.violations),
            ("fresh_violations", self.fresh_violations),
            ("consistency_violations", self.consistency_violations),
            ("runs_completed", self.runs_completed),
            ("runs_with_violation", self.runs_with_violation),
            ("instructions", self.instructions),
            ("expiry_trips", self.expiry_trips),
            ("expiry_restarts", self.expiry_restarts),
            ("expiry_giveups", self.expiry_giveups),
        ]
    }

    /// Sets the scalar counter called `name`; returns `false` for
    /// unknown names (deserializers treat that as a schema mismatch).
    pub fn set_counter(&mut self, name: &str, value: u64) -> bool {
        let slot = match name {
            "on_cycles" => &mut self.on_cycles,
            "on_time_us" => &mut self.on_time_us,
            "off_time_us" => &mut self.off_time_us,
            "reboots" => &mut self.reboots,
            "jit_checkpoints" => &mut self.jit_checkpoints,
            "region_entries" => &mut self.region_entries,
            "region_commits" => &mut self.region_commits,
            "region_reexecs" => &mut self.region_reexecs,
            "log_words" => &mut self.log_words,
            "ckpt_words" => &mut self.ckpt_words,
            "outputs" => &mut self.outputs,
            "violations" => &mut self.violations,
            "fresh_violations" => &mut self.fresh_violations,
            "consistency_violations" => &mut self.consistency_violations,
            "runs_completed" => &mut self.runs_completed,
            "runs_with_violation" => &mut self.runs_with_violation,
            "instructions" => &mut self.instructions,
            "expiry_trips" => &mut self.expiry_trips,
            "expiry_restarts" => &mut self.expiry_restarts,
            "expiry_giveups" => &mut self.expiry_giveups,
            _ => return false,
        };
        *slot = value;
        true
    }

    /// Total wall-clock time (on + off) in µs.
    pub fn total_time_us(&self) -> u64 {
        self.on_time_us + self.off_time_us
    }

    /// Fraction of completed runs that violated a policy — the
    /// Table 2(b) metric. Returns 0 when no runs completed.
    pub fn violating_fraction(&self) -> f64 {
        if self.runs_completed == 0 {
            0.0
        } else {
            self.runs_with_violation as f64 / self.runs_completed as f64
        }
    }
}

/// Serializes every counter of `s` (scalars in declaration order, then
/// the breakdown) — the `"stats"` object of bench artifact cells and of
/// serve `run`/`sweep` responses, byte for byte.
pub fn stats_to_json(s: &Stats) -> Json {
    let mut pairs: Vec<(String, Json)> = s
        .counters()
        .into_iter()
        .map(|(k, v)| (k.to_string(), Json::u64(v)))
        .collect();
    pairs.push((
        "breakdown".to_string(),
        Json::Obj(
            s.breakdown
                .counters()
                .into_iter()
                .map(|(k, v)| (k.to_string(), Json::u64(v)))
                .collect(),
        ),
    ));
    Json::Obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violating_fraction_handles_zero_runs() {
        let s = Stats::default();
        assert_eq!(s.violating_fraction(), 0.0);
    }

    #[test]
    fn violating_fraction_is_ratio() {
        let s = Stats {
            runs_completed: 4,
            runs_with_violation: 1,
            ..Default::default()
        };
        assert!((s.violating_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn counters_cover_every_field_and_round_trip() {
        // Exhaustive struct literal: adding a field without extending
        // `counters`/`set_counter` makes `b` below differ from `a`.
        let a = Stats {
            on_cycles: 1,
            on_time_us: 2,
            off_time_us: 3,
            reboots: 4,
            jit_checkpoints: 5,
            region_entries: 6,
            region_commits: 7,
            region_reexecs: 8,
            log_words: 9,
            ckpt_words: 10,
            outputs: 11,
            violations: 12,
            fresh_violations: 13,
            consistency_violations: 14,
            runs_completed: 15,
            runs_with_violation: 16,
            instructions: 17,
            expiry_trips: 18,
            expiry_restarts: 19,
            expiry_giveups: 20,
            breakdown: Breakdown {
                compute: 21,
                input: 22,
                output: 23,
                checkpoint: 24,
                undo_log: 25,
                restore: 26,
            },
        };
        // Rebuild a second Stats from the pair lists alone.
        let mut b = Stats::default();
        for (name, v) in a.counters() {
            assert!(b.set_counter(name, v), "unknown counter {name}");
        }
        for (name, v) in a.breakdown.counters() {
            assert!(b.breakdown.set_counter(name, v), "unknown counter {name}");
        }
        assert_eq!(a, b, "counters()/set_counter must cover every field");
        assert!(!b.set_counter("no_such_counter", 1));
        assert!(!b.breakdown.set_counter("no_such_counter", 1));
    }

    #[test]
    fn total_time_sums_on_and_off() {
        let s = Stats {
            on_time_us: 10,
            off_time_us: 90,
            ..Default::default()
        };
        assert_eq!(s.total_time_us(), 100);
    }
}
