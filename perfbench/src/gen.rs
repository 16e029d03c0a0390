//! Seeded input generator: every report, fingerprint and request the
//! program sees is derived here from `--seed`, so the same seed replays
//! the same inputs. No host suite runs during set-up.

use lmb_results::runreport::{
    BenchRecord, BenchStatus, CounterDelta, HarnessMetrics, MetricValue, Provenance, ResourceUsage,
    RunReport,
};
use lmb_results::Baseline;

/// The 17 registry entries that produce the paper's tables, in registry
/// order: the `suite_quick` workload runs exactly these.
pub const PAPER_BENCHES: [&str; 17] = [
    "sys_info",
    "bw_mem",
    "bw_pipe_tcp",
    "remote_bw_model",
    "bw_file",
    "lat_mem_rd",
    "lat_syscall",
    "lat_sig",
    "lat_proc",
    "lat_ctx",
    "lat_pipe",
    "lat_tcp_rpc",
    "lat_udp_rpc",
    "remote_lat_model",
    "lat_connect",
    "lat_fs",
    "lat_disk",
];

/// The six extension entries a full quick suite adds to the paper set.
const EXTENSION_BENCHES: [&str; 6] = [
    "bw_unix",
    "lat_mem_dirty",
    "lat_mp_c2c",
    "lat_poll",
    "lat_mlp",
    "lat_alias",
];

/// Records in a full quick-suite-shaped report (paper set + extensions).
pub const FULL_RECORDS: usize = PAPER_BENCHES.len() + EXTENSION_BENCHES.len();

/// Metric labels every synthesized record carries; `history` queries ask
/// for one of these.
pub const METRIC_LABELS: [&str; 3] = ["", "p50", "bandwidth"];

/// Fingerprints (shards) the serve workloads spread pushes over.
pub const FINGERPRINTS: usize = 8;

/// splitmix64: a small, stable, dependency-free stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6C6D_6265_6E63_6821)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Registry name of synthesized record `i` (paper set, then extensions).
pub fn bench_name(i: usize) -> &'static str {
    PAPER_BENCHES
        .iter()
        .chain(EXTENSION_BENCHES.iter())
        .nth(i % FULL_RECORDS)
        .copied()
        .expect("index reduced modulo the name count")
}

/// The fingerprint of shard `i`.
pub fn fingerprint(i: usize) -> String {
    format!("perfbench-host-{i:02}")
}

fn record(rng: &mut Rng, name: &str) -> BenchRecord {
    let median = 0.5 + 500.0 * rng.uniform();
    BenchRecord {
        name: name.to_string(),
        produces: format!("Table {}", 2 + rng.below(16)),
        status: BenchStatus::Ok,
        attempts: 1,
        wall_ms: 1.0 + 300.0 * rng.uniform(),
        exclusive: rng.below(4) == 0,
        provenance: Some(Provenance {
            repetitions: 2,
            warmup_runs: 1,
            calibrated_iterations: 1 + rng.next_u64() % 1_000_000,
            clock_resolution_ns: 20.0 + rng.uniform(),
            sample_min_ns: median * 0.95,
            sample_median_ns: median,
            sample_p90_ns: median * 1.05,
            sample_p99_ns: median * 1.08,
            sample_max_ns: median * 1.1,
            mad_ns: median * 0.02,
            min_median_gap: 0.05 * rng.uniform(),
            cv: 0.1 * rng.uniform(),
            iqr_outliers: rng.below(3) as u32,
            quality: "good".into(),
            measure_calls: 1 + rng.below(8) as u32,
            clamped_samples: 0,
        }),
        rusage: Some(ResourceUsage {
            utime_us: rng.next_u64() % 400_000,
            stime_us: rng.next_u64() % 200_000,
            maxrss_kb: 4_000 + rng.next_u64() % 60_000,
            minor_faults: rng.next_u64() % 20_000,
            major_faults: 0,
            vol_ctx_switches: rng.next_u64() % 5_000,
            invol_ctx_switches: rng.next_u64() % 500,
            contended: false,
        }),
        counters: Some(CounterDelta {
            cycles: rng.next_u64() % 1_000_000_000,
            instructions: rng.next_u64() % 2_000_000_000,
            branch_misses: rng.next_u64() % 1_000_000,
            cache_misses: rng.next_u64() % 1_000_000,
            dtlb_misses: rng.next_u64() % 100_000,
            enabled_ns: 1_000_000 + rng.next_u64() % 1_000_000,
            running_ns: 1_000_000,
        }),
        metrics: METRIC_LABELS
            .iter()
            .map(|label| MetricValue {
                label: (*label).to_string(),
                value: 1.0 + 1000.0 * rng.uniform(),
                unit: if label.is_empty() { "us" } else { "MB/s" }.into(),
            })
            .collect(),
        span: None,
    }
}

/// A quick-suite-shaped report with `records` records, the first
/// `records` names of the 23-entry registry starting at a seeded offset.
pub fn report(rng: &mut Rng, records: usize) -> RunReport {
    let first = rng.below(FULL_RECORDS);
    RunReport {
        records: (0..records)
            .map(|i| record(rng, bench_name(first + i)))
            .collect(),
        harness: Some(HarnessMetrics {
            suite_ms: 250.0 + 50.0 * rng.uniform(),
            probe_ms: rng.uniform(),
            warmup_ms: 20.0 * rng.uniform(),
            calibrate_ms: 20.0 * rng.uniform(),
            attempt_ms: 400.0 * rng.uniform(),
            ..HarnessMetrics::default()
        }),
        ..RunReport::default()
    }
}

/// One generated push: which shard it targets and what the daemon must
/// acknowledge.
#[derive(Debug, Clone)]
pub struct Push {
    pub entry: Baseline,
    /// Shard index (into [`fingerprint`]).
    pub shard: usize,
    /// The 1-based shard position the ack must carry.
    pub expected_seq: u64,
}

/// The seeded push sequence: `per_shard` pushes to each of
/// [`FINGERPRINTS`] shards in a seeded interleaving, capture times
/// strictly increasing (so a shard's time order is its arrival order),
/// half 1-record reports and half full 23-record ones.
pub fn push_sequence(seed: u64, per_shard: usize) -> Vec<Push> {
    let mut rng = Rng::new(seed);
    let mut shards: Vec<usize> = (0..FINGERPRINTS)
        .flat_map(|s| std::iter::repeat_n(s, per_shard))
        .collect();
    rng.shuffle(&mut shards);
    let mut seqs = [0u64; FINGERPRINTS];
    shards
        .into_iter()
        .enumerate()
        .map(|(i, shard)| {
            let records = if i % 2 == 0 { 1 } else { FULL_RECORDS };
            let mut entry = Baseline::now(
                &fingerprint(shard),
                "perfbench-host",
                report(&mut rng, records),
            );
            entry.unix_seconds = 1_700_000_000 + i as u64;
            seqs[shard] += 1;
            Push {
                entry,
                shard,
                expected_seq: seqs[shard],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let a = push_sequence(3, 4);
        let b = push_sequence(3, 4);
        assert_eq!(a.len(), 4 * FINGERPRINTS);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.entry, y.entry);
        }
        assert_ne!(push_sequence(4, 4)[1].entry, a[1].entry);
    }

    #[test]
    fn acks_count_arrivals_per_shard() {
        let seq = push_sequence(9, 16);
        for shard in 0..FINGERPRINTS {
            let seqs: Vec<u64> = seq
                .iter()
                .filter(|p| p.shard == shard)
                .map(|p| p.expected_seq)
                .collect();
            assert_eq!(seqs, (1..=16).collect::<Vec<u64>>());
        }
    }
}
