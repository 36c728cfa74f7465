//! Observations: the externally-visible events of an execution.
//!
//! The formal semantics (Appendix B) labels transitions with
//! observations; the trace checker validates Definitions 2 and 3 against
//! the *committed* observation trace — events produced inside an atomic
//! region become visible only when the region commits, mirroring how a
//! partially-executed region's effects are invisible (§3.1).

use crate::memory::Deps;
use ocelot_analysis::taint::Prov;
use ocelot_ir::InstrRef;
use std::sync::Arc;

/// One committed event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Obs {
    /// An input operation sampled a sensor.
    Input {
        /// The input instruction.
        at: InstrRef,
        /// Logical time of the sample — the paper's `in(τ)`.
        tau: u64,
        /// Wall-clock sample time in µs.
        time_us: u64,
        /// Power-on era (reboots increment it).
        era: u64,
        /// The sensor channel (interned: every sample of one sensor
        /// shares a single allocation).
        sensor: Arc<str>,
        /// The sampled value.
        value: i64,
        /// The provenance call chain of this collection (shared with
        /// the machine's chain table for pre-resolved sites).
        chain: Arc<Prov>,
    },
    /// A value was emitted on an output channel.
    Output {
        /// The output instruction.
        at: InstrRef,
        /// Logical time.
        tau: u64,
        /// Era.
        era: u64,
        /// Channel name (interned: every write to one channel shares a
        /// single allocation).
        channel: Arc<str>,
        /// Values written.
        values: Vec<i64>,
        /// Input dependencies of the written values.
        deps: Deps,
    },
    /// A use of policy-constrained data (recorded at detector check
    /// sites with the dynamic dependencies of the used value).
    Use {
        /// The using instruction.
        at: InstrRef,
        /// Logical time.
        tau: u64,
        /// Wall-clock time in µs (what a TICS-style expiry check reads
        /// from its timekeeper).
        time_us: u64,
        /// Era.
        era: u64,
        /// Input dependencies of the used value.
        deps: Deps,
    },
    /// The system rebooted after a power failure.
    Reboot {
        /// Off/charging time in µs — the paper's `pick(n)`.
        off_us: u64,
        /// The era that just ended.
        ended_era: u64,
    },
    /// An atomic region committed.
    Commit {
        /// Region id.
        region: ocelot_ir::RegionId,
        /// Logical time at commit.
        tau: u64,
    },
    /// A detector-reported policy violation.
    Violation(crate::detect::ViolationEvent),
}

/// Buffers observations, holding back region-internal events until the
/// region commits.
#[derive(Debug, Clone, Default)]
pub(crate) struct ObsLog {
    committed: Vec<Obs>,
    pending: Vec<Obs>,
    buffering: bool,
    capacity: usize,
}

impl ObsLog {
    /// A log that keeps at most `capacity` committed events (0 =
    /// unlimited). Violations are always retained.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        ObsLog {
            capacity,
            ..Default::default()
        }
    }

    /// Starts buffering (atomic region entered).
    pub(crate) fn begin_region(&mut self) {
        self.buffering = true;
    }

    /// Commits buffered events (region ended).
    pub(crate) fn commit_region(&mut self) {
        self.buffering = false;
        // Drained rather than taken, so the buffer keeps its capacity
        // for the next region.
        let mut pending = std::mem::take(&mut self.pending);
        for o in pending.drain(..) {
            self.push_committed(o);
        }
        self.pending = pending;
    }

    /// Discards buffered events (region rolled back).
    pub(crate) fn abort_region(&mut self) {
        self.buffering = false;
        self.pending.clear();
    }

    /// Records an event (buffered while a region is open).
    pub(crate) fn push(&mut self, o: Obs) {
        if self.buffering {
            self.pending.push(o);
        } else {
            self.push_committed(o);
        }
    }

    /// Records an event that bypasses buffering (reboots are visible
    /// immediately — they are exactly what aborts the buffer).
    pub(crate) fn push_unbuffered(&mut self, o: Obs) {
        self.push_committed(o);
    }

    fn push_committed(&mut self, o: Obs) {
        if self.capacity > 0 && self.committed.len() >= self.capacity {
            // Keep violations; drop the oldest non-violation event.
            if matches!(o, Obs::Violation(_)) {
                if let Some(pos) = self
                    .committed
                    .iter()
                    .position(|e| !matches!(e, Obs::Violation(_)))
                {
                    self.committed.remove(pos);
                } else {
                    return;
                }
            } else {
                return;
            }
        }
        self.committed.push(o);
    }

    /// Clears the log for reuse, keeping the committed vector's
    /// allocation and the configured capacity (unlike [`ObsLog::take`],
    /// which surrenders the buffer to the caller).
    pub(crate) fn reset(&mut self) {
        self.committed.clear();
        self.pending.clear();
        self.buffering = false;
    }

    /// Takes the committed trace, resetting the log.
    pub(crate) fn take(&mut self) -> Vec<Obs> {
        self.pending.clear();
        self.buffering = false;
        std::mem::take(&mut self.committed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_ir::{FuncId, Label};

    fn reboot(era: u64) -> Obs {
        Obs::Reboot {
            off_us: 10,
            ended_era: era,
        }
    }

    fn use_obs(tau: u64) -> Obs {
        Obs::Use {
            at: InstrRef {
                func: FuncId(0),
                label: Label(0),
            },
            tau,
            time_us: tau,
            era: 0,
            deps: Deps::new(),
        }
    }

    #[test]
    fn region_commit_preserves_order() {
        let mut log = ObsLog::default();
        log.push(use_obs(1));
        log.begin_region();
        log.push(use_obs(2));
        log.push(use_obs(3));
        log.commit_region();
        log.push(use_obs(4));
        let taus: Vec<u64> = log
            .committed
            .iter()
            .map(|o| match o {
                Obs::Use { tau, .. } => *tau,
                _ => 0,
            })
            .collect();
        assert_eq!(taus, vec![1, 2, 3, 4]);
    }

    #[test]
    fn region_abort_discards_pending() {
        let mut log = ObsLog::default();
        log.begin_region();
        log.push(use_obs(2));
        log.push_unbuffered(reboot(0));
        log.abort_region();
        assert_eq!(log.committed.len(), 1, "only the reboot is visible");
        assert!(matches!(log.committed[0], Obs::Reboot { .. }));
    }

    #[test]
    fn capacity_drops_oldest_but_keeps_violations() {
        let mut log = ObsLog::with_capacity(2);
        log.push(use_obs(1));
        log.push(use_obs(2));
        log.push(use_obs(3)); // dropped
        assert_eq!(log.committed.len(), 2);
        let v = Obs::Violation(crate::detect::ViolationEvent {
            policy: ocelot_core::PolicyId(0),
            kind: crate::detect::ViolationKind::Freshness,
            at: InstrRef {
                func: FuncId(0),
                label: Label(9),
            },
            tau: 9,
            era: 1,
            stale_ops: vec![],
        });
        log.push(v.clone());
        assert!(log.committed.iter().any(|o| matches!(o, Obs::Violation(_))));
    }
}
