//! Operational metrics for lmbench-rs: counters, gauges, and log2-bucketed
//! histograms.
//!
//! Instruments are plain atomics owned by whatever reads them — the
//! results daemon holds its RPC server's, its store's and its
//! procedures' instruments as struct fields. There is no process-wide
//! registry and no on/off switch: a path that is measured (the Tables
//! 12–13 echo server) simply holds no instruments, and a path that holds
//! them always records.
//!
//! The owner renders its instruments into flat `name -> value` [`Rows`]
//! (the shape the `metrics_snapshot` trace event carries) with each
//! instrument's `flatten_into`. Rows are deterministic: a `BTreeMap`
//! sorts the names, histogram bucket boundaries are fixed powers of two,
//! and no wall-clock state leaks in — two owners that record the same
//! values render byte-identical rows.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

/// Flattened instrument values, sorted by name.
pub type Rows = BTreeMap<String, u64>;

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

    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }

    /// One row: `name -> count`.
    pub fn flatten_into(&self, name: &str, rows: &mut Rows) {
        rows.insert(name.to_string(), self.get());
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

    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Relaxed)
    }

    /// One row: `name -> value`, clamped at zero (rows are unsigned).
    pub fn flatten_into(&self, name: &str, rows: &mut Rows) {
        rows.insert(name.to_string(), self.get().max(0) as u64);
    }
}

/// One bucket per power of two plus a zero bucket: 65 in all, always.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Bucket index for a recorded value. Bucket 0 holds zeros; bucket `i >= 1`
/// holds `2^(i-1) <= v < 2^i`. The boundaries are fixed at compile time so
/// rows rendered under `SimClock` (or on any two hosts fed the same
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

    #[inline]
    pub fn record(&self, v: u64) {
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

    /// `name.count`, `name.sum`, and one `name.ge_<floor>` row per
    /// non-empty bucket.
    pub fn flatten_into(&self, name: &str, rows: &mut Rows) {
        rows.insert(format!("{name}.count"), self.count());
        rows.insert(format!("{name}.sum"), self.sum());
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Relaxed);
            if n > 0 {
                rows.insert(format!("{name}.ge_{}", bucket_floor(i)), n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruments_record_every_call() {
        let c = Counter::new();
        let g = Gauge::new();
        let h = Histogram::new();
        c.add(7);
        g.add(9);
        g.add(-2);
        h.record(1024);
        assert_eq!(c.get(), 7);
        assert_eq!(g.get(), 7);
        assert_eq!((h.count(), h.sum()), (1, 1024));
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
    fn flatten_renders_every_instrument_as_counter_rows() {
        let c = Counter::new();
        c.add(2);
        let g = Gauge::new();
        g.add(-3);
        let h = Histogram::new();
        h.record(0);
        h.record(5);
        h.record(1000);
        let mut rows = Rows::new();
        c.flatten_into("c", &mut rows);
        g.flatten_into("g", &mut rows);
        h.flatten_into("h", &mut rows);
        let want: Vec<(&str, u64)> = vec![
            ("c", 2),
            ("g", 0),
            ("h.count", 3),
            ("h.ge_0", 1),
            ("h.ge_4", 1),
            ("h.ge_512", 1),
            ("h.sum", 1005),
        ];
        let got: Vec<(&str, u64)> = rows.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn an_empty_histogram_still_renders_count_and_sum() {
        let mut rows = Rows::new();
        Histogram::new().flatten_into("h", &mut rows);
        assert_eq!(rows.len(), 2);
        assert_eq!((rows["h.count"], rows["h.sum"]), (0, 0));
    }
}
