//! # ocelot-telemetry
//!
//! A hand-rolled, std-only observability layer for the whole workspace:
//! no vendored deps, no macros beyond [`span!`], nothing the paper's
//! artifacts can observe.
//!
//! Two pillars:
//!
//! * **Tracing** ([`trace`]): `let _s = span!("transform");` records an
//!   RAII span into a per-thread buffer. [`trace::drain_spans`] hands
//!   the buffers to an exporter; [`chrome`] renders them as a Chrome
//!   `trace_event` document.
//! * **Metrics** ([`metrics`]): a fixed registry of per-worker-sharded
//!   atomic counters, high-watermark gauges, and log₂ latency
//!   histograms, snapshotted with sorted keys and stable rendering.
//!
//! The workspace's one strict JSON layer, [`json`], lives here too: the
//! Chrome export is a JSON document, and every crate already links this
//! one.
//!
//! Both pillars are **off by default** and cost one relaxed atomic load
//! per probe while off. Nothing here ever feeds back into schema-v1
//! artifacts: wall-clock readings exist only in trace/metrics *output*,
//! so every byte-identity determinism suite passes with telemetry
//! enabled (held by tests in the bench and serve crates).
//!
//! This crate is a dependency leaf — `ir`, `analysis`, `core`,
//! `runtime`, `lint`, `bench`, and `serve` all probe into it, so it can
//! depend on none of them.

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod chrome;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod trace;

pub use hist::{percentile, Histogram, HIST_BUCKETS};
pub use trace::{
    drain_spans, dropped_spans, metrics_on, set_metrics, set_tracing, tracing_on, SpanGuard,
    SpanRec,
};

/// Emits the outputs a command's `--metrics`/`--trace-out` flags asked
/// for: the sorted metrics snapshot to stdout, then the Chrome trace to
/// `trace_out`, with its span count on stderr.
///
/// # Errors
///
/// A one-line message when the trace cannot be written.
pub fn emit(trace_out: Option<&std::path::Path>, metrics: bool) -> Result<(), String> {
    if metrics {
        print!("\nmetrics:\n{}", metrics::render_snapshot());
    }
    if let Some(p) = trace_out {
        let n = chrome::write_trace(p)?;
        eprintln!("wrote {} ({n} spans)", p.display());
    }
    Ok(())
}

/// Opens an RAII span: `let _s = span!("transform");` times the
/// enclosing scope. An optional second argument sets the Chrome-trace
/// category (defaults to `"pipeline"`). The guard must be bound to a
/// name — `let _ = span!(..)` drops it immediately and records an empty
/// span.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::SpanGuard::enter($name, "pipeline")
    };
    ($name:expr, $cat:expr) => {
        $crate::trace::SpanGuard::enter($name, $cat)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mode bits are process-global, so tests that flip them share one
    /// lock (other crates' telemetry tests do the same).
    pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn spans_record_only_while_tracing_is_on() {
        let _guard = serial();
        set_tracing(false);
        drop(drain_spans());
        {
            let _s = span!("off");
        }
        assert!(drain_spans().is_empty());
        set_tracing(true);
        {
            let _s = span!("parse");
            let _t = span!("execute", "device");
        }
        set_tracing(false);
        let spans = drain_spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert!(names.contains(&"parse"), "{names:?}");
        assert!(names.contains(&"execute"), "{names:?}");
        let exec = spans.iter().find(|s| s.name == "execute").unwrap();
        assert_eq!(exec.cat, "device");
        assert!(drain_spans().is_empty(), "drain empties the buffers");
    }

    #[test]
    fn spans_nest_within_their_parent() {
        let _guard = serial();
        set_tracing(true);
        drop(drain_spans());
        {
            let _outer = span!("outer");
            let _inner = span!("inner");
        }
        set_tracing(false);
        let spans = drain_spans();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert!(outer.start_ns <= inner.start_ns);
        assert!(outer.start_ns + outer.dur_ns >= inner.start_ns + inner.dur_ns);
        assert_eq!(outer.tid, inner.tid);
    }

    #[test]
    fn counters_count_only_while_metrics_are_on() {
        let _guard = serial();
        set_metrics(false);
        metrics::reset_metrics();
        metrics::POOL_STEALS.add(7);
        assert_eq!(metrics::POOL_STEALS.value(), 0);
        set_metrics(true);
        metrics::POOL_STEALS.add(7);
        metrics::POOL_STEALS.incr();
        set_metrics(false);
        assert_eq!(metrics::POOL_STEALS.value(), 8);
        metrics::reset_metrics();
        assert_eq!(metrics::POOL_STEALS.value(), 0);
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let _guard = serial();
        metrics::reset_metrics();
        set_metrics(true);
        metrics::CHECKS_EXECUTED.add(3);
        metrics::CHECKS_ELIDED.add(2);
        set_metrics(false);
        let snap = metrics::snapshot();
        let keys: Vec<&str> = snap.iter().map(|(k, _)| *k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "snapshot keys are sorted");
        let text = metrics::render_snapshot();
        assert!(text.contains("runtime.checks.executed 3"), "{text}");
        assert!(text.contains("runtime.checks.elided 2"), "{text}");
        metrics::reset_metrics();
    }

    #[test]
    fn sharded_counters_sum_across_threads() {
        let _guard = serial();
        metrics::reset_metrics();
        set_metrics(true);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        metrics::REBOOTS.incr();
                    }
                });
            }
        });
        set_metrics(false);
        assert_eq!(metrics::REBOOTS.value(), 8000);
        metrics::reset_metrics();
    }
}
