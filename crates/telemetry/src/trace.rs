//! RAII tracing spans into per-thread buffers, plus the process-global
//! mode bits both telemetry pillars gate on.
//!
//! A probe site does `let _s = span!("compile");` and pays one relaxed
//! atomic load while tracing is off. While on, entering a span reads
//! the monotonic clock once; dropping it reads the clock again and
//! pushes one [`SpanRec`] onto the calling thread's buffer (a mutex the
//! owning thread almost always acquires uncontended — the only other
//! taker is [`drain_spans`]). Buffers are capacity-capped: past
//! [`BUF_CAP`] records a thread drops new spans and counts them in
//! [`dropped_spans`] instead of growing without bound.
//!
//! Timestamps are nanoseconds since a process-wide epoch (first probe
//! wins), which is exactly the shape the Chrome `trace_event` exporter
//! ([`crate::chrome`]) wants. Wall-clock readings never travel anywhere
//! except trace output files.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Mode bit: tracing spans are recorded.
const TRACE: u8 = 1;
/// Mode bit: metric probes count.
const METRICS: u8 = 2;

/// The process-global telemetry mode. One relaxed load decides every
/// probe; both bits start cleared.
static MODE: AtomicU8 = AtomicU8::new(0);

/// Turns span recording on or off (process-global).
pub fn set_tracing(on: bool) {
    if on {
        MODE.fetch_or(TRACE, Ordering::Relaxed);
    } else {
        MODE.fetch_and(!TRACE, Ordering::Relaxed);
    }
}

/// Turns metric counting on or off (process-global).
pub fn set_metrics(on: bool) {
    if on {
        MODE.fetch_or(METRICS, Ordering::Relaxed);
    } else {
        MODE.fetch_and(!METRICS, Ordering::Relaxed);
    }
}

/// Whether spans are currently recorded.
#[inline]
pub fn tracing_on() -> bool {
    MODE.load(Ordering::Relaxed) & TRACE != 0
}

/// Whether metric probes currently count.
#[inline]
pub fn metrics_on() -> bool {
    MODE.load(Ordering::Relaxed) & METRICS != 0
}

/// Nanoseconds since the process-wide trace epoch (the first probe).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A small, dense per-thread ordinal (1, 2, …) used as the Chrome-trace
/// `tid` and as the metric shard index — `std::thread::ThreadId` is
/// neither small nor dense.
pub fn thread_ord() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ORD: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORD.with(|t| *t)
}

/// One completed span, ready for export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Span name (a pipeline stage: `"parse"`, `"execute"`, …).
    pub name: &'static str,
    /// Chrome-trace category (`"pipeline"`, `"pool"`, `"serve"`, …).
    pub cat: &'static str,
    /// Recording thread's ordinal (Chrome-trace `tid`).
    pub tid: u64,
    /// Start, in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Most spans one thread buffers before dropping the excess (counted,
/// not silently lost): ~64k spans ≈ a few MB per busy thread.
pub const BUF_CAP: usize = 1 << 16;

/// Every thread's span buffer, for [`drain_spans`]. Buffers are pushed
/// once per thread and never removed — a dead thread's spans still
/// belong in the trace.
static REGISTRY: Mutex<Vec<Arc<Mutex<Vec<SpanRec>>>>> = Mutex::new(Vec::new());

/// Spans dropped because a thread's buffer was full.
static DROPPED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static BUF: Arc<Mutex<Vec<SpanRec>>> = {
        let buf = Arc::new(Mutex::new(Vec::new()));
        REGISTRY
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&buf));
        buf
    };
}

fn record(rec: SpanRec) {
    BUF.with(|b| {
        let mut v = b.lock().unwrap_or_else(|e| e.into_inner());
        if v.len() >= BUF_CAP {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        } else {
            v.push(rec);
        }
    });
}

/// Takes every buffered span out of every thread's buffer, ordered by
/// (thread, start, longest-first) so nested spans follow their parents.
pub fn drain_spans() -> Vec<SpanRec> {
    let registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let mut out = Vec::new();
    for buf in registry.iter() {
        out.append(&mut buf.lock().unwrap_or_else(|e| e.into_inner()));
    }
    out.sort_by(|a, b| {
        (a.tid, a.start_ns, std::cmp::Reverse(a.dur_ns), a.name).cmp(&(
            b.tid,
            b.start_ns,
            std::cmp::Reverse(b.dur_ns),
            b.name,
        ))
    });
    out
}

/// How many spans were dropped on full buffers since process start.
pub fn dropped_spans() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// The RAII guard [`crate::span!`] returns: entering reads the clock if
/// tracing is on; dropping records the completed span.
pub struct SpanGuard {
    live: Option<(&'static str, &'static str, u64)>,
}

impl SpanGuard {
    /// Opens a span (a no-op carrying `None` while tracing is off).
    #[inline]
    pub fn enter(name: &'static str, cat: &'static str) -> SpanGuard {
        SpanGuard {
            live: tracing_on().then(|| (name, cat, now_ns())),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((name, cat, start_ns)) = self.live.take() {
            record(SpanRec {
                name,
                cat,
                tid: thread_ord(),
                start_ns,
                dur_ns: now_ns().saturating_sub(start_ns),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_ordinals_are_distinct_and_stable() {
        let here = thread_ord();
        assert_eq!(here, thread_ord(), "stable within a thread");
        let other = std::thread::spawn(thread_ord).join().unwrap();
        assert_ne!(here, other, "distinct across threads");
    }

    #[test]
    fn the_clock_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
