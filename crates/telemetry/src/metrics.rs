//! The metric registry: per-worker-sharded counters, high-watermark
//! gauges, and atomic log₂ latency histograms.
//!
//! Metrics are a **fixed, explicitly enumerated** set of statics —
//! there is no dynamic registration, so a snapshot cannot miss a
//! late-registered metric, names are compile-time constants, and the
//! whole registry is auditable in one screen (the name registry table
//! in `docs/observability.md` mirrors this file). Every probe is gated
//! on [`crate::metrics_on`]: one relaxed load while off, one sharded
//! relaxed `fetch_add` while on.
//!
//! Snapshots ([`snapshot`] / `render_snapshot`) enumerate every
//! metric in sorted-name order with stable rendering, so `--metrics`
//! output diffs cleanly across runs. Snapshot values are *monotonic
//! process totals* (modulo [`reset_metrics`], which tests and overhead
//! harnesses use to scope a measurement).

use crate::hist::Histogram;
use crate::trace::{metrics_on, thread_ord};
use std::sync::atomic::{AtomicU64, Ordering};

/// Shards per counter: enough that a pool of workers rarely collides
/// on one cache line, small enough that summing stays trivial.
const SHARDS: usize = 16;

#[inline]
fn shard_idx() -> usize {
    (thread_ord() as usize) % SHARDS
}

/// A monotonically increasing event count, sharded per worker thread.
pub struct Counter {
    name: &'static str,
    shards: [AtomicU64; SHARDS],
}

impl Counter {
    const fn new(name: &'static str) -> Counter {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Counter {
            name,
            shards: [ZERO; SHARDS],
        }
    }

    /// Adds `n` events (a no-op while metrics are off).
    #[inline]
    pub fn add(&self, n: u64) {
        if metrics_on() {
            self.shards[shard_idx()].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one event (a no-op while metrics are off).
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The summed count across every shard.
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .fold(0u64, |acc, s| acc.saturating_add(s.load(Ordering::Relaxed)))
    }

    fn reset(&self) {
        for s in &self.shards {
            s.store(0, Ordering::Relaxed);
        }
    }
}

/// A high-watermark gauge: `observe` keeps the maximum value seen.
pub struct Gauge {
    name: &'static str,
    max: AtomicU64,
}

impl Gauge {
    const fn new(name: &'static str) -> Gauge {
        Gauge {
            name,
            max: AtomicU64::new(0),
        }
    }

    /// Raises the watermark to `v` if higher (a no-op while metrics
    /// are off).
    #[inline]
    pub fn observe(&self, v: u64) {
        if metrics_on() {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// The highest value observed.
    pub fn value(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A lock-free log₂ latency histogram (same bucket layout as
/// [`Histogram`]); snapshots convert to the mergeable form for
/// percentile helpers.
pub struct AtomicHist {
    name: &'static str,
    buckets: [AtomicU64; crate::HIST_BUCKETS],
}

impl AtomicHist {
    const fn new(name: &'static str) -> AtomicHist {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        AtomicHist {
            name,
            buckets: [ZERO; crate::HIST_BUCKETS],
        }
    }

    /// Records one sample (a no-op while metrics are off).
    #[inline]
    pub fn record(&self, v: u64) {
        if metrics_on() {
            self.buckets[Histogram::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The current contents as a mergeable [`Histogram`].
    pub fn load(&self) -> Histogram {
        Histogram::from_buckets(
            self.buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        )
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------
// The registry. Every metric in the workspace lives here; the doc table
// in docs/observability.md mirrors this list.
// ---------------------------------------------------------------------

/// Dynamic freshness/consistency checks actually probed at runtime.
pub static CHECKS_EXECUTED: Counter = Counter::new("runtime.checks.executed");
/// Always 0: the runtime skips no check probe. Kept registered only for
/// perfbench, which reads it.
pub static CHECKS_ELIDED: Counter = Counter::new("runtime.checks.elided");
/// Power-failure reboots across every simulated device.
pub static REBOOTS: Counter = Counter::new("runtime.reboots");
/// Expiry-mitigation restarts (re-runs forced by stale inputs).
pub static MITIGATION_RESTARTS: Counter = Counter::new("runtime.mitigation_restarts");
/// Input chains rebuilt dynamically instead of served from the
/// interned chain table.
pub static CHAIN_REBUILDS: Counter = Counter::new("runtime.chains.dynamic_rebuilds");
/// Jobs that ran on a worker other than the one seeded with them.
pub static POOL_STEALS: Counter = Counter::new("pool.steals");
/// Deepest per-worker queue observed while seeding/stealing.
pub static POOL_QUEUE_DEPTH: Gauge = Gauge::new("pool.queue_depth.max");
/// Serve program-cache submissions answered from cache.
pub static SERVE_PROGRAMS_HIT: Counter = Counter::new("serve.cache.programs.hits");
/// Serve program-cache submissions that compiled fresh.
pub static SERVE_PROGRAMS_MISS: Counter = Counter::new("serve.cache.programs.misses");
/// Serve per-scenario machine cores served from cache.
pub static SERVE_CORES_HIT: Counter = Counter::new("serve.cache.cores.hits");
/// Serve per-scenario machine cores built fresh.
pub static SERVE_CORES_MISS: Counter = Counter::new("serve.cache.cores.misses");
/// Serve verify-session documents found already cached.
pub static SERVE_DOCS_HIT: Counter = Counter::new("serve.cache.docs.hits");
/// Serve verify-session documents analyzed fresh.
pub static SERVE_DOCS_MISS: Counter = Counter::new("serve.cache.docs.misses");
/// Serve lint reports answered from the report cache.
pub static SERVE_LINTS_HIT: Counter = Counter::new("serve.cache.lints.hits");
/// Serve lint reports computed fresh.
pub static SERVE_LINTS_MISS: Counter = Counter::new("serve.cache.lints.misses");
/// Requests the serve protocol dispatched.
pub static SERVE_REQUESTS: Counter = Counter::new("serve.requests");
/// Incremental (session/cache-backed) verifications performed.
pub static VERIFY_INCREMENTAL: Counter = Counter::new("verify.incremental");
/// Full from-scratch verifications performed.
pub static VERIFY_FULL: Counter = Counter::new("verify.full");
/// Serve request handling latency, nanoseconds.
pub static SERVE_REQUEST_NS: AtomicHist = AtomicHist::new("serve.request_ns");

static COUNTERS: &[&Counter] = &[
    &CHECKS_EXECUTED,
    &CHECKS_ELIDED,
    &REBOOTS,
    &MITIGATION_RESTARTS,
    &CHAIN_REBUILDS,
    &POOL_STEALS,
    &SERVE_PROGRAMS_HIT,
    &SERVE_PROGRAMS_MISS,
    &SERVE_CORES_HIT,
    &SERVE_CORES_MISS,
    &SERVE_DOCS_HIT,
    &SERVE_DOCS_MISS,
    &SERVE_LINTS_HIT,
    &SERVE_LINTS_MISS,
    &SERVE_REQUESTS,
    &VERIFY_INCREMENTAL,
    &VERIFY_FULL,
];

static GAUGES: &[&Gauge] = &[&POOL_QUEUE_DEPTH];

static HISTS: &[&AtomicHist] = &[&SERVE_REQUEST_NS];

/// Every metric's (name, value), sorted by name. Histograms contribute
/// `<name>.count`, `.p50`, `.p90`, `.p99` entries.
pub fn snapshot() -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = Vec::new();
    for c in COUNTERS {
        out.push((c.name, c.value()));
    }
    for g in GAUGES {
        out.push((g.name, g.value()));
    }
    let mut hist_rows: Vec<(String, u64)> = Vec::new();
    for h in HISTS {
        let loaded = h.load();
        hist_rows.push((format!("{}.count", h.name), loaded.total()));
        hist_rows.push((format!("{}.p50", h.name), loaded.p50()));
        hist_rows.push((format!("{}.p90", h.name), loaded.p90()));
        hist_rows.push((format!("{}.p99", h.name), loaded.p99()));
    }
    // Histogram row names are derived strings; leak them once so the
    // snapshot row type stays a simple (&str, u64). The set is fixed
    // (4 rows per registered histogram), so this leaks a bounded,
    // deduplicated handful of strings per process.
    for (name, v) in hist_rows {
        out.push((leak_name(name), v));
    }
    out.sort_by_key(|&(name, _)| name);
    out
}

/// Interns a derived metric-row name, returning the same `&'static`
/// for the same string every time.
fn leak_name(name: String) -> &'static str {
    use std::collections::HashMap;
    use std::sync::Mutex;
    static INTERNED: Mutex<Option<HashMap<String, &'static str>>> = Mutex::new(None);
    let mut guard = INTERNED.lock().unwrap_or_else(|e| e.into_inner());
    let map = guard.get_or_insert_with(HashMap::new);
    if let Some(&s) = map.get(&name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.clone().into_boxed_str());
    map.insert(name, leaked);
    leaked
}

/// The snapshot as stable `name value` lines (one per metric, sorted).
pub(crate) fn render_snapshot() -> String {
    let mut out = String::new();
    for (name, v) in snapshot() {
        out.push_str(name);
        out.push(' ');
        out.push_str(&v.to_string());
        out.push('\n');
    }
    out
}

/// Zeroes every metric (tests and overhead harnesses scope their
/// measurements with this).
pub fn reset_metrics() {
    for c in COUNTERS {
        c.reset();
    }
    for g in GAUGES {
        g.reset();
    }
    for h in HISTS {
        h.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_metrics;

    #[test]
    fn gauge_keeps_the_high_watermark() {
        let _guard = crate::tests::serial();
        reset_metrics();
        set_metrics(true);
        POOL_QUEUE_DEPTH.observe(3);
        POOL_QUEUE_DEPTH.observe(9);
        POOL_QUEUE_DEPTH.observe(4);
        set_metrics(false);
        assert_eq!(POOL_QUEUE_DEPTH.value(), 9);
        reset_metrics();
    }

    #[test]
    fn atomic_histogram_snapshots_percentiles() {
        let _guard = crate::tests::serial();
        reset_metrics();
        set_metrics(true);
        for v in [100, 200, 400, 100_000] {
            SERVE_REQUEST_NS.record(v);
        }
        set_metrics(false);
        let snap = snapshot();
        let get = |k: &str| snap.iter().find(|(n, _)| *n == k).map(|&(_, v)| v);
        assert_eq!(get("serve.request_ns.count"), Some(4));
        assert_eq!(
            get("serve.request_ns.p99"),
            Some(Histogram::bucket_max(Histogram::bucket_of(100_000)))
        );
        reset_metrics();
    }

    #[test]
    fn every_registry_name_is_unique() {
        let snap = snapshot();
        let mut names: Vec<&str> = snap.iter().map(|(n, _)| *n).collect();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate metric names");
    }
}
