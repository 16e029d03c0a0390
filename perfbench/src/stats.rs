//! The benchmark's own statistics: percentiles that only claim what the
//! sample count supports, open-loop step verdicts, and the highest ladder
//! rate that meets a latency limit.

/// Percentiles a report may use, highest first. A tail is only reported
/// at a rank with at least [`MIN_BEYOND`] samples above it.
const TAIL_RANKS: [f64; 4] = [99.0, 90.0, 80.0, 50.0];

/// Samples that must lie beyond a reported percentile.
const MIN_BEYOND: usize = 10;

/// The `q`-th percentile (0–100) of `sorted` by linear interpolation
/// between closest ranks. `None` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 100.0) / 100.0 * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    if sorted[lo] == sorted[hi] {
        // Also keeps infinite samples (failed requests) from making NaN.
        return Some(sorted[lo]);
    }
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of `sorted`.
pub fn median(sorted: &[f64]) -> Option<f64> {
    percentile(sorted, 50.0)
}

/// Sorts a copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Samples strictly above the `q`-th percentile rank of `n` samples.
fn beyond(n: usize, q: f64) -> usize {
    n - (q / 100.0 * n as f64).ceil() as usize
}

/// The highest rank in [`TAIL_RANKS`] with at least [`MIN_BEYOND`]
/// samples beyond it, with its value: `(rank, value)`. `None` when even
/// the median lacks that support.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let rank = TAIL_RANKS
        .into_iter()
        .find(|&q| beyond(sorted.len(), q) >= MIN_BEYOND)?;
    Some((rank, percentile(sorted, rank)?))
}

/// One open-loop request: when it was due, when it was sent, when its
/// reply arrived (ns from the step's start), and whether it succeeded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub intended_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub ok: bool,
    /// Process CPU seconds, client and daemon, while it ran.
    pub cpu_s: f64,
    /// The host slowdown a reference call right after it saw, if one ran.
    pub slowdown: Option<f64>,
}

impl Sample {
    /// Latency from the intended send time: counts the wait a stall
    /// imposes on every request queued behind it.
    pub fn latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.intended_ns) as f64 / 1e6
    }

    /// How late the generator sent this request.
    pub fn lag_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.intended_ns) as f64 / 1e6
    }
}

/// A request counts as late when sent this long after it was due.
const LATE_MS: f64 = 1.0;

/// The verdict on one open-loop step at a fixed offered rate.
#[derive(Debug, Clone, PartialEq)]
pub struct StepVerdict {
    pub rate: f64,
    pub samples: usize,
    pub failed: usize,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub late_frac: f64,
    pub max_lag_ms: f64,
    /// Lateness rose through the step: the server fell behind the
    /// schedule and stayed behind.
    pub backlog: bool,
    /// p99 within the limit, no backlog, no failed request.
    pub meets: bool,
}

/// Lateness grows through a step when the median lag of its last quarter
/// exceeds that of its first quarter by more than `growth_ms`.
fn growing_backlog(samples: &[Sample], growth_ms: f64) -> bool {
    let quarter = samples.len() / 4;
    if quarter == 0 {
        return false;
    }
    let lag = |s: &[Sample]| median(&sorted(&s.iter().map(Sample::lag_ms).collect::<Vec<_>>()));
    let head = lag(&samples[..quarter]).unwrap_or(0.0);
    let tail = lag(&samples[samples.len() - quarter..]).unwrap_or(0.0);
    tail - head > growth_ms
}

/// Judges a step against a p99 latency limit. A failed request counts as
/// missing the limit (its latency is taken as infinite).
pub fn judge(rate: f64, samples: &[Sample], limit_ms: f64) -> StepVerdict {
    let lat = sorted(
        &samples
            .iter()
            .map(|s| if s.ok { s.latency_ms() } else { f64::INFINITY })
            .collect::<Vec<_>>(),
    );
    let failed = samples.iter().filter(|s| !s.ok).count();
    let p99_ms = percentile(&lat, 99.0).unwrap_or(f64::INFINITY);
    let late = samples.iter().filter(|s| s.lag_ms() > LATE_MS).count();
    let backlog = growing_backlog(samples, limit_ms / 2.0);
    StepVerdict {
        rate,
        samples: samples.len(),
        failed,
        p50_ms: median(&lat).unwrap_or(f64::INFINITY),
        p99_ms,
        late_frac: late as f64 / samples.len().max(1) as f64,
        max_lag_ms: samples.iter().map(Sample::lag_ms).fold(0.0, f64::max),
        backlog,
        meets: failed == 0 && !backlog && p99_ms <= limit_ms,
    }
}

/// The highest rate on a fixed ascending ladder that meets the limit,
/// found by bisection over the ladder's indices (each probe is an
/// independent step, so the order of probes does not bias it). `probe`
/// runs one step at a rate and says whether it met the limit. Assumes a
/// rate that fails makes every higher rate fail. `None` if even the
/// lowest rung fails.
pub fn max_rate(ladder: &[f64], mut probe: impl FnMut(f64) -> bool) -> Option<f64> {
    // Invariant: every index below `lo` passed, every index at or above
    // `hi` failed (or is past the ladder).
    let (mut lo, mut hi) = (0, ladder.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if probe(ladder[mid]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo.checked_sub(1).map(|i| ladder[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(3.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(5.0));
        assert_eq!(percentile(&v, 25.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(
            tail(&v).map(|t| t.0),
            Some(99.0),
            "1000 samples: 10 beyond p99"
        );
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(
            tail(&v).map(|t| t.0),
            Some(90.0),
            "999 samples: only 9 beyond p99"
        );
        let v: Vec<f64> = (0..50).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| t.0), Some(80.0));
        assert_eq!(
            tail(&v[..19]),
            None,
            "19 samples cannot support even a median"
        );
        assert_eq!(tail(&v[..20]).map(|t| t.0), Some(50.0));
    }

    fn on_time(n: u64, interval_ns: u64, service_ns: u64) -> Vec<Sample> {
        (0..n)
            .map(|i| Sample {
                intended_ns: i * interval_ns,
                sent_ns: i * interval_ns,
                done_ns: i * interval_ns + service_ns,
                ok: true,
                cpu_s: 0.0,
                slowdown: None,
            })
            .collect()
    }

    #[test]
    fn a_steady_step_meets_the_limit() {
        let v = judge(1000.0, &on_time(1000, 1_000_000, 200_000), 10.0);
        assert!(v.meets && !v.backlog, "{v:?}");
        assert_eq!(v.late_frac, 0.0);
        assert!((v.p99_ms - 0.2).abs() < 1e-9);
    }

    #[test]
    fn a_failed_request_misses_the_limit() {
        let mut s = on_time(100, 1_000_000, 200_000);
        s[3].ok = false;
        let v = judge(1000.0, &s, 10.0);
        assert_eq!(v.failed, 1);
        assert!(!v.meets);
    }

    #[test]
    fn overload_shows_as_a_growing_backlog() {
        // Offered every 1 ms, served every 1.2 ms from one connection: each
        // send waits for the previous reply, so lag grows without bound.
        let mut done = 0u64;
        let s: Vec<Sample> = (0..400u64)
            .map(|i| {
                let intended = i * 1_000_000;
                let sent = intended.max(done);
                done = sent + 1_200_000;
                Sample {
                    intended_ns: intended,
                    sent_ns: sent,
                    done_ns: done,
                    ok: true,
                    cpu_s: 0.0,
                    slowdown: None,
                }
            })
            .collect();
        assert!(growing_backlog(&s, 5.0));
        let v = judge(1000.0, &s, 100.0);
        assert!(
            v.backlog && !v.meets,
            "a backlog fails even a loose p99 limit"
        );
    }

    #[test]
    fn a_transient_stall_is_not_a_backlog() {
        // One 30 ms stall mid-step, then the server catches up.
        let mut s = on_time(400, 1_000_000, 100_000);
        let mut done = 0;
        for (i, x) in s.iter_mut().enumerate() {
            x.sent_ns = x.intended_ns.max(done);
            let service = if i == 200 { 30_000_000 } else { 100_000 };
            x.done_ns = x.sent_ns + service;
            done = x.done_ns;
        }
        assert!(!growing_backlog(&s, 5.0));
        let v = judge(1000.0, &s, 50.0);
        assert!(v.meets, "{v:?}");
        assert!(v.max_lag_ms > 25.0, "requests behind the stall were late");
    }

    #[test]
    fn max_rate_bisects_the_fixed_ladder() {
        let ladder = [100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0];
        let mut probes = 0;
        let best = max_rate(&ladder, |rate| {
            probes += 1;
            rate <= 450.0
        });
        assert_eq!(best, Some(400.0));
        assert!(probes <= 3, "bisection probes log2(n) rungs, not {probes}");
        assert_eq!(max_rate(&ladder, |_| false), None);
        assert_eq!(max_rate(&ladder, |_| true), Some(700.0));
    }
}
