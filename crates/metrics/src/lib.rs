//! Operational metrics for lmbench-rs: counters, gauges, and log2-bucketed
//! histograms behind a process-global on/off switch.
//!
//! The design mirrors the `lmb-trace` sink contract: when metrics are
//! disabled (the default), every recording call is a single relaxed atomic
//! load and a predictable branch — nothing is allocated, locked, or written.
//! The overhead guard in `tests/overhead.rs` pins that promise the same way
//! `crates/trace/tests/overhead.rs` pins the trace sink's.
//!
//! Two recording paths exist on every instrument:
//!
//! * `add` / `set` / `record` — gated on [`enabled`]; use these on hot paths
//!   that must cost nothing when nobody is looking.
//! * `add_always` / `set_always` / `record_always` — ungated; use these on
//!   paths that are already behind another enablement check (the trace sink's
//!   delivery path) or that are intrinsically cold (a compaction run).
//!
//! Instruments can live two ways: as plain struct fields (a daemon holding
//! its own `Counter`s) or registered by name in the process-global registry
//! so [`snapshot`] can enumerate them. Snapshots are deterministic: names
//! are sorted, histogram bucket boundaries are fixed powers of two, and no
//! wall-clock state leaks in — two processes that perform the same recorded
//! operations in the same order produce byte-identical rendered snapshots.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, OnceLock};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is metrics recording on? Inlined relaxed load: the entire disabled-path
/// cost of any gated instrument call.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Turn gated recording on process-wide.
pub fn enable() {
    ENABLED.store(true, Relaxed);
}

/// Turn gated recording off process-wide. Values already recorded remain
/// readable; nothing is cleared.
pub fn disable() {
    ENABLED.store(false, Relaxed);
}

/// A monotonically increasing count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Gated add: free when metrics are disabled.
    #[inline(always)]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Relaxed);
        }
    }

    #[inline(always)]
    pub fn incr(&self) {
        self.add(1)
    }

    /// Ungated add for call sites behind their own enablement check.
    #[inline]
    pub fn add_always(&self, n: u64) {
        self.value.fetch_add(n, Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }
}

/// A value that can move both ways (active connections, queue depth).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub const fn new() -> Self {
        Gauge {
            value: AtomicI64::new(0),
        }
    }

    #[inline(always)]
    pub fn set(&self, v: i64) {
        if enabled() {
            self.value.store(v, Relaxed);
        }
    }

    #[inline(always)]
    pub fn add(&self, n: i64) {
        if enabled() {
            self.value.fetch_add(n, Relaxed);
        }
    }

    #[inline]
    pub fn add_always(&self, n: i64) {
        self.value.fetch_add(n, Relaxed);
    }

    #[inline]
    pub fn set_always(&self, v: i64) {
        self.value.store(v, Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Relaxed)
    }
}

/// One bucket per power of two plus a zero bucket: 65 in all, always.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Bucket index for a recorded value. Bucket 0 holds zeros; bucket `i >= 1`
/// holds `2^(i-1) <= v < 2^i`. The boundaries are fixed at compile time so
/// snapshots taken under `SimClock` (or on any two hosts fed the same
/// values) land in identical buckets.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

/// Lower bound of a bucket (inclusive), for rendering.
pub fn bucket_floor(index: usize) -> u64 {
    match index {
        0 => 0,
        i => 1u64 << (i - 1),
    }
}

/// A log2-bucketed distribution (latencies in microseconds, batch sizes).
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub const fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
        }
    }

    /// Gated record: free when metrics are disabled.
    #[inline(always)]
    pub fn record(&self, v: u64) {
        if enabled() {
            self.record_always(v);
        }
    }

    /// Ungated record for call sites behind their own enablement check.
    #[inline]
    pub fn record_always(&self, v: u64) {
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Relaxed);
            if n > 0 {
                buckets.push((i as u32, n));
            }
        }
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }
}

/// Point-in-time copy of one histogram: total count, total sum, and the
/// non-empty buckets as `(bucket index, count)` pairs in index order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub buckets: Vec<(u32, u64)>,
}

// ---------------------------------------------------------------------------
// Process-global registry
// ---------------------------------------------------------------------------

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<&'static str, &'static Counter>,
    gauges: BTreeMap<&'static str, &'static Gauge>,
    histograms: BTreeMap<&'static str, &'static Histogram>,
}

fn registry() -> MutexGuard<'static, RegistryInner> {
    static REGISTRY: OnceLock<Mutex<RegistryInner>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| Mutex::new(RegistryInner::default()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Find-or-create the named counter. The instrument is leaked once and lives
/// for the process; cache the returned reference (see the [`counter!`]
/// macro) so hot paths never touch the registry lock.
pub fn counter(name: &'static str) -> &'static Counter {
    registry()
        .counters
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(Counter::new())))
}

/// Find-or-create the named gauge.
pub fn gauge(name: &'static str) -> &'static Gauge {
    registry()
        .gauges
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(Gauge::new())))
}

/// Find-or-create the named histogram.
pub fn histogram(name: &'static str) -> &'static Histogram {
    registry()
        .histograms
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(Histogram::new())))
}

/// Resolve a named counter once, then reuse the `&'static` on every hit.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::Counter> = ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::counter($name))
    }};
}

/// Resolve a named gauge once, then reuse the `&'static` on every hit.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::Gauge> = ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::gauge($name))
    }};
}

/// Resolve a named histogram once, then reuse the `&'static` on every hit.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::histogram($name))
    }};
}

/// A deterministic point-in-time copy of every registered instrument,
/// sorted by name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// Everything as flat `(name, value)` counter rows — the shape the
    /// `metrics_snapshot` trace event carries. Gauges clamp at zero;
    /// histograms contribute `name.count`, `name.sum`, and one
    /// `name.ge_<floor>` row per non-empty bucket.
    pub fn flatten(&self) -> Vec<(String, u64)> {
        let mut rows = Vec::new();
        for (name, v) in &self.counters {
            rows.push((name.clone(), *v));
        }
        for (name, v) in &self.gauges {
            rows.push((name.clone(), (*v).max(0) as u64));
        }
        for (name, h) in &self.histograms {
            rows.push((format!("{name}.count"), h.count));
            rows.push((format!("{name}.sum"), h.sum));
            for (idx, n) in &h.buckets {
                rows.push((format!("{name}.ge_{}", bucket_floor(*idx as usize)), *n));
            }
        }
        rows.sort();
        rows
    }
}

/// Snapshot every registered instrument. Deterministic: BTreeMap order, no
/// timestamps, no process identity.
pub fn snapshot() -> Snapshot {
    let reg = registry();
    Snapshot {
        counters: reg
            .counters
            .iter()
            .map(|(n, c)| (n.to_string(), c.get()))
            .collect(),
        gauges: reg
            .gauges
            .iter()
            .map(|(n, g)| (n.to_string(), g.get()))
            .collect(),
        histograms: reg
            .histograms
            .iter()
            .map(|(n, h)| (n.to_string(), h.snapshot()))
            .collect(),
    }
}

/// Serializes tests that flip the process-global [`enable`] switch, exactly
/// like `lmb_trace::test_lock`.
#[doc(hidden)]
pub fn test_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guard() -> MutexGuard<'static, ()> {
        test_lock().lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn gated_instruments_record_nothing_while_disabled() {
        let _g = guard();
        disable();
        let c = Counter::new();
        let g = Gauge::new();
        let h = Histogram::new();
        c.add(7);
        g.set(9);
        h.record(1024);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.count(), 0);
        enable();
        c.add(7);
        g.set(9);
        h.record(1024);
        assert_eq!(c.get(), 7);
        assert_eq!(g.get(), 9);
        assert_eq!((h.count(), h.sum()), (1, 1024));
        disable();
    }

    #[test]
    fn ungated_paths_record_regardless_of_the_switch() {
        let _g = guard();
        disable();
        let c = Counter::new();
        c.add_always(3);
        let h = Histogram::new();
        h.record_always(0);
        assert_eq!(c.get(), 3);
        assert_eq!(h.snapshot().buckets, vec![(0, 1)]);
    }

    #[test]
    fn bucket_boundaries_are_fixed_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_floor(0), 0);
        assert_eq!(bucket_floor(1), 1);
        assert_eq!(bucket_floor(11), 1024);
        // Every value lands strictly inside [floor(i), floor(i+1)).
        for v in [1u64, 2, 3, 5, 100, 4095, 4096, 1 << 40] {
            let i = bucket_index(v);
            assert!(bucket_floor(i) <= v);
            assert!(i == 64 || v < bucket_floor(i + 1));
        }
    }

    #[test]
    fn registry_snapshot_is_sorted_and_repeatable() {
        let _g = guard();
        counter("test.zeta").add_always(2);
        counter("test.alpha").add_always(1);
        gauge("test.depth").set_always(4);
        histogram("test.lat_us").record_always(300);
        let a = snapshot();
        let b = snapshot();
        assert_eq!(a, b);
        let names: Vec<&str> = a.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert!(a
            .histograms
            .iter()
            .any(|(n, h)| n == "test.lat_us" && h.count >= 1));
    }

    #[test]
    fn named_instruments_are_find_or_create() {
        let _g = guard();
        let first = counter("test.shared") as *const Counter;
        let second = counter("test.shared") as *const Counter;
        assert_eq!(first, second);
    }

    #[test]
    fn flatten_renders_histograms_as_counter_rows() {
        let h = Histogram::new();
        h.record_always(5);
        h.record_always(1000);
        let snap = Snapshot {
            counters: vec![("c".into(), 2)],
            gauges: vec![("g".into(), -3)],
            histograms: vec![("h".into(), h.snapshot())],
        };
        let flat = snap.flatten();
        assert!(flat.contains(&("c".to_string(), 2)));
        assert!(flat.contains(&("g".to_string(), 0)));
        assert!(flat.contains(&("h.count".to_string(), 2)));
        assert!(flat.contains(&("h.sum".to_string(), 1005)));
        assert!(flat.contains(&("h.ge_4".to_string(), 1)));
        assert!(flat.contains(&("h.ge_512".to_string(), 1)));
    }
}
