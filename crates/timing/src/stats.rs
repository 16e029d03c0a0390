//! Sample statistics and the summary policies the paper argues for.
//!
//! lmbench (§3.4, "Variability") observed up to 30% run-to-run variation in
//! context-switch times and compensated by "running the benchmark in a loop
//! and taking the minimum result" — the minimum being the run least
//! disturbed by cache collisions, daemons and scheduler noise. Bandwidth
//! benchmarks, by contrast, report the *last* of several warm runs, and some
//! consumers want medians. [`SummaryPolicy`] captures the choice.

/// How to collapse repeated measurements into one reported number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SummaryPolicy {
    /// Minimum over all repetitions — the paper's choice for latency
    /// benchmarks with high variability (context switches, connect).
    #[default]
    Minimum,
    /// Median — robust middle ground, used by our analyzers.
    Median,
    /// Arithmetic mean.
    Mean,
    /// The final repetition — the paper's choice for cache-warm bandwidth
    /// runs ("the benchmark is typically run several times; only the last
    /// result is recorded", §3.4).
    Last,
}

/// A set of repeated measurements of the same quantity.
///
/// Values are kept in insertion order, and sums (mean, CV, stddev) run in
/// that order. Queries that need order sort one copy: each call of
/// [`Samples::percentile`], [`Samples::iqr`], [`Samples::outliers`] or
/// [`Samples::outlier_fraction`] sorts once, and a caller that wants
/// several of them takes one [`Samples::sorted`] view and asks it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a sample set from raw values, ignoring non-finite entries.
    pub fn from_values(values: impl IntoIterator<Item = f64>) -> Self {
        let values = values.into_iter();
        let mut s = Self {
            values: Vec::with_capacity(values.size_hint().0),
        };
        for v in values {
            s.push(v);
        }
        s
    }

    /// Records one measurement. Non-finite values are ignored (a timer
    /// anomaly must not poison the summary).
    pub fn push(&mut self, value: f64) {
        if value.is_finite() {
            self.values.push(value);
        }
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The raw values, in insertion order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        self.values.iter().copied().min_by(|a, b| a.total_cmp(b))
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().max_by(|a, b| a.total_cmp(b))
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
    }

    /// Median (midpoint of the middle pair for even counts), or `None` if
    /// empty.
    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// Inclusive percentile with linear interpolation between closest
    /// ranks, or `None` if the set is empty or `p` is NaN or outside
    /// `[0, 100]`.
    ///
    /// Never panics: a bad percentile request from report plumbing must not
    /// take a finished measurement down with it.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        self.sorted().percentile(p)
    }

    /// The samples sorted once, ascending by `total_cmp`: ask it for
    /// several percentiles, the IQR or the outliers without sorting again.
    #[must_use]
    pub fn sorted(&self) -> Sorted<'_> {
        let mut values = self.values.clone();
        // Values that compare equal under `total_cmp` have identical bits,
        // so the unstable sort yields exactly the stable sort's order.
        values.sort_unstable_by(f64::total_cmp);
        Sorted {
            samples: self,
            values,
        }
    }

    /// 50th percentile (the median), or `None` if empty.
    pub fn p50(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// 90th percentile, or `None` if empty.
    pub fn p90(&self) -> Option<f64> {
        self.percentile(90.0)
    }

    /// 99th percentile, or `None` if empty.
    pub fn p99(&self) -> Option<f64> {
        self.percentile(99.0)
    }

    /// Population standard deviation, or `None` if empty.
    pub fn stddev(&self) -> Option<f64> {
        let mean = self.mean()?;
        let var = self
            .values
            .iter()
            .map(|v| {
                let d = v - mean;
                d * d
            })
            .sum::<f64>()
            / self.values.len() as f64;
        Some(var.sqrt())
    }

    /// Median absolute deviation — a robust spread estimate used by the
    /// curve analyzers to reject scheduler-noise outliers.
    pub fn mad(&self) -> Option<f64> {
        let med = self.median()?;
        let deviations = Samples::from_values(self.values.iter().map(|v| (v - med).abs()));
        deviations.median()
    }

    /// Sample coefficient of variation (stddev over `n - 1` / mean).
    ///
    /// Returns 0.0 for fewer than two samples or a non-positive mean — the
    /// degenerate sets carry no dispersion information, and callers feed
    /// this straight into noise thresholds where "unknown" must not trip a
    /// retry. Matches [`crate::record::MeasureEvent::cv`].
    pub fn cv(&self) -> f64 {
        let n = self.values.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.values.iter().sum::<f64>() / n as f64;
        if mean <= 0.0 {
            return 0.0;
        }
        let var = self
            .values
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / (n - 1) as f64;
        var.sqrt() / mean
    }

    /// Interquartile range (p75 - p25), or `None` if empty.
    pub fn iqr(&self) -> Option<f64> {
        self.sorted().iqr()
    }

    /// Samples outside the Tukey fences `[q1 - 1.5·IQR, q3 + 1.5·IQR]`
    /// (see [`Sorted::outliers`]).
    pub fn outliers(&self) -> usize {
        self.sorted().outliers()
    }

    /// Fraction of samples that are IQR outliers; 0.0 for empty sets.
    pub fn outlier_fraction(&self) -> f64 {
        self.sorted().outlier_fraction()
    }

    /// Last recorded sample, or `None` if empty.
    pub fn last(&self) -> Option<f64> {
        self.values.last().copied()
    }

    /// Collapses the samples with the given policy, or `None` if empty.
    pub fn summarize(&self, policy: SummaryPolicy) -> Option<f64> {
        match policy {
            SummaryPolicy::Minimum => self.min(),
            SummaryPolicy::Median => self.median(),
            SummaryPolicy::Mean => self.mean(),
            SummaryPolicy::Last => self.last(),
        }
    }

    /// Relative spread `(max - min) / median`; 0.0 for degenerate sets.
    ///
    /// The paper quotes "up to 30%" here for context switching — this is the
    /// statistic that claim refers to.
    pub fn relative_spread(&self) -> f64 {
        match (self.min(), self.max(), self.median()) {
            (Some(lo), Some(hi), Some(med)) if med != 0.0 => (hi - lo) / med,
            _ => 0.0,
        }
    }
}

/// A [`Samples`] set sorted once, ascending by `total_cmp`, answering
/// every order query from that one sort. Built by [`Samples::sorted`].
#[derive(Debug)]
pub struct Sorted<'a> {
    samples: &'a Samples,
    values: Vec<f64>,
}

impl<'a> Sorted<'a> {
    /// The set this view sorts, for queries that sum in insertion order
    /// (mean, CV).
    #[must_use]
    pub fn samples(&self) -> &'a Samples {
        self.samples
    }

    /// The values in ascending order.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Inclusive percentile with linear interpolation between closest
    /// ranks; same contract as [`Samples::percentile`].
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if !(0.0..=100.0).contains(&p) || self.values.is_empty() {
            return None;
        }
        let sorted = &self.values;
        // Linear interpolation between closest ranks (the R-7/NumPy
        // default): continuous in p, so quartile-derived fences do not
        // jump between neighbouring samples on tiny perturbations.
        let rank = (p / 100.0) * (sorted.len() - 1) as f64;
        let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
        let frac = rank - rank.floor();
        Some(sorted[lo] + frac * (sorted[hi] - sorted[lo]))
    }

    /// 50th percentile, or `None` if empty.
    #[must_use]
    pub fn p50(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// 90th percentile, or `None` if empty.
    #[must_use]
    pub fn p90(&self) -> Option<f64> {
        self.percentile(90.0)
    }

    /// 99th percentile, or `None` if empty.
    #[must_use]
    pub fn p99(&self) -> Option<f64> {
        self.percentile(99.0)
    }

    /// Interquartile range (p75 - p25), or `None` if empty.
    #[must_use]
    pub fn iqr(&self) -> Option<f64> {
        Some(self.percentile(75.0)? - self.percentile(25.0)?)
    }

    /// Samples outside the Tukey fences `[q1 - 1.5·IQR, q3 + 1.5·IQR]` —
    /// the repetitions most likely disturbed by a daemon or a scheduler
    /// preemption rather than the operation under test.
    #[must_use]
    pub fn outliers(&self) -> usize {
        let (Some(q1), Some(q3)) = (self.percentile(25.0), self.percentile(75.0)) else {
            return 0;
        };
        let fence = 1.5 * (q3 - q1);
        let (lo, hi) = (q1 - fence, q3 + fence);
        self.values.iter().filter(|&&v| v < lo || v > hi).count()
    }

    /// Fraction of samples that are IQR outliers; 0.0 for empty sets.
    #[must_use]
    pub fn outlier_fraction(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.outliers() as f64 / self.values.len() as f64
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Self::from_values(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(values: &[f64]) -> Samples {
        Samples::from_values(values.iter().copied())
    }

    #[test]
    fn empty_set_returns_none_everywhere() {
        let s = Samples::new();
        assert!(s.is_empty());
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.median(), None);
        assert_eq!(s.stddev(), None);
        assert_eq!(s.mad(), None);
        assert_eq!(s.summarize(SummaryPolicy::Minimum), None);
    }

    #[test]
    fn basic_statistics() {
        let s = sample(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(s.len(), 5);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(5.0));
        assert_eq!(s.mean(), Some(3.0));
        assert_eq!(s.median(), Some(3.0));
        assert_eq!(s.last(), Some(5.0));
    }

    #[test]
    fn non_finite_values_are_ignored() {
        let s = sample(&[1.0, f64::NAN, f64::INFINITY, 2.0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.max(), Some(2.0));
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let s = sample(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(s.percentile(0.0), Some(10.0));
        assert_eq!(s.percentile(50.0), Some(30.0));
        assert_eq!(s.percentile(100.0), Some(50.0));
        // Rank 0.25 * 4 = 1: exactly the second sample; 90% -> rank 3.6.
        assert_eq!(s.percentile(25.0), Some(20.0));
        assert_eq!(s.percentile(90.0), Some(46.0));
        // Even count: the median is the midpoint of the middle pair.
        assert_eq!(sample(&[1.0, 2.0]).median(), Some(1.5));
    }

    #[test]
    fn percentile_rejects_out_of_range_without_panicking() {
        let s = sample(&[1.0, 2.0]);
        assert_eq!(s.percentile(101.0), None);
        assert_eq!(s.percentile(-0.5), None);
        assert_eq!(s.percentile(f64::NAN), None);
    }

    #[test]
    fn percentiles_of_empty_set_are_none() {
        let s = Samples::new();
        for p in [0.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(s.percentile(p), None);
        }
        assert_eq!(s.iqr(), None);
        assert_eq!(s.outliers(), 0);
        assert_eq!(s.outlier_fraction(), 0.0);
        assert_eq!(s.cv(), 0.0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let s = sample(&[42.0]);
        assert_eq!(s.p50(), Some(42.0));
        assert_eq!(s.p90(), Some(42.0));
        assert_eq!(s.p99(), Some(42.0));
        assert_eq!(s.iqr(), Some(0.0));
        assert_eq!(s.outliers(), 0);
        assert_eq!(s.cv(), 0.0, "one sample has no dispersion");
    }

    #[test]
    fn all_equal_samples_collapse_every_percentile() {
        let s = sample(&[7.5; 9]);
        for p in [0.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            assert_eq!(s.percentile(p), Some(7.5), "p{p}");
        }
        assert_eq!(s.iqr(), Some(0.0));
        assert_eq!(s.cv(), 0.0);
    }

    #[test]
    fn p50_is_the_median_on_even_length_sets() {
        for values in [
            &[1.0, 2.0][..],
            &[4.0, 1.0, 3.0, 2.0][..],
            &[10.0, 10.0, 20.0, 30.0, 40.0, 40.0][..],
        ] {
            let s = sample(values);
            assert_eq!(s.p50(), s.median(), "values {values:?}");
        }
        // And the midpoint rule itself: R-7 on [1,2,3,4] gives 2.5.
        assert_eq!(sample(&[4.0, 2.0, 1.0, 3.0]).p50(), Some(2.5));
    }

    #[test]
    fn extreme_percentiles_are_exact_order_statistics() {
        // p=0 and p=100 must return min/max exactly — no interpolation
        // artifacts off the ends of the sorted array.
        let s = sample(&[3.0, 1.0, 4.0, 1.5, 9.0, 2.6]);
        assert_eq!(s.percentile(0.0), s.min());
        assert_eq!(s.percentile(100.0), s.max());
    }

    #[test]
    fn from_values_rejects_nan_and_still_behaves() {
        let s = Samples::from_values([f64::NAN, f64::NAN]);
        assert!(s.is_empty(), "all-NaN input collapses to the empty set");
        assert_eq!(s.median(), None);
        let mixed = Samples::from_values([f64::NAN, 3.0, f64::NEG_INFINITY]);
        assert_eq!(mixed.len(), 1);
        assert_eq!(mixed.p99(), Some(3.0));
    }

    #[test]
    fn cv_matches_hand_computation() {
        // mean 10, sample variance ((−1)²+1²)/1 = 2 -> cv = sqrt(2)/10.
        let s = sample(&[9.0, 11.0]);
        assert!((s.cv() - 2.0f64.sqrt() / 10.0).abs() < 1e-12);
    }

    #[test]
    fn outliers_flag_the_disturbed_repetition() {
        let s = sample(&[10.0, 10.5, 9.8, 10.2, 10.1, 10.3, 50.0]);
        assert_eq!(s.outliers(), 1);
        assert!((s.outlier_fraction() - 1.0 / 7.0).abs() < 1e-12);
        let quiet = sample(&[10.0, 10.5, 9.8, 10.2]);
        assert_eq!(quiet.outliers(), 0);
    }

    #[test]
    fn stddev_of_constant_is_zero() {
        let s = sample(&[7.0; 10]);
        assert_eq!(s.stddev(), Some(0.0));
        assert_eq!(s.mad(), Some(0.0));
        assert_eq!(s.relative_spread(), 0.0);
    }

    #[test]
    fn summary_policies_differ_as_expected() {
        let s = sample(&[5.0, 1.0, 9.0]);
        assert_eq!(s.summarize(SummaryPolicy::Minimum), Some(1.0));
        assert_eq!(s.summarize(SummaryPolicy::Median), Some(5.0));
        assert_eq!(s.summarize(SummaryPolicy::Mean), Some(5.0));
        assert_eq!(s.summarize(SummaryPolicy::Last), Some(9.0));
    }

    #[test]
    fn relative_spread_matches_paper_definition() {
        // min 70, max 91, median 80 -> spread (91-70)/80 = 0.2625
        let s = sample(&[70.0, 80.0, 91.0]);
        let expected = (91.0 - 70.0) / 80.0;
        assert!((s.relative_spread() - expected).abs() < 1e-12);
    }

    #[test]
    fn mad_is_robust_to_one_outlier() {
        let mut clean = sample(&[10.0, 11.0, 9.0, 10.0, 10.0]);
        let clean_mad = clean.mad().unwrap();
        clean.push(1000.0);
        let with_outlier = clean.mad().unwrap();
        assert!(with_outlier <= 1.5, "MAD {with_outlier} blew up on outlier");
        assert!(clean_mad <= 1.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every summary policy lands within [min, max] of the samples.
        #[test]
        fn summaries_are_bounded(values in proptest::collection::vec(0.0f64..1e9, 1..64)) {
            let s = Samples::from_values(values.iter().copied());
            let lo = s.min().unwrap();
            let hi = s.max().unwrap();
            for policy in [
                SummaryPolicy::Minimum,
                SummaryPolicy::Median,
                SummaryPolicy::Mean,
                SummaryPolicy::Last,
            ] {
                let v = s.summarize(policy).unwrap();
                prop_assert!(v >= lo && v <= hi, "{policy:?} gave {v} outside [{lo}, {hi}]");
            }
        }

        /// Percentiles are monotone in p.
        #[test]
        fn percentiles_monotone(values in proptest::collection::vec(0.0f64..1e6, 1..64)) {
            let s = Samples::from_values(values.iter().copied());
            let mut last = f64::MIN;
            for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 100.0] {
                let v = s.percentile(p).unwrap();
                prop_assert!(v >= last);
                last = v;
            }
        }

        /// MAD is never larger than the full spread.
        #[test]
        fn mad_bounded_by_range(values in proptest::collection::vec(0.0f64..1e6, 2..64)) {
            let s = Samples::from_values(values.iter().copied());
            let spread = s.max().unwrap() - s.min().unwrap();
            prop_assert!(s.mad().unwrap() <= spread + 1e-9);
        }

        /// On a constant input every summary policy reports the same number:
        /// the policies only disagree about how to handle dispersion, and a
        /// constant set has none.
        #[test]
        fn policies_agree_on_constant_inputs(value in 0.125f64..1e9, n in 1usize..48) {
            let s = Samples::from_values(std::iter::repeat_n(value, n));
            for policy in [
                SummaryPolicy::Minimum,
                SummaryPolicy::Median,
                SummaryPolicy::Mean,
                SummaryPolicy::Last,
            ] {
                let got = s.summarize(policy).unwrap();
                prop_assert!(
                    (got - value).abs() <= value * 1e-12,
                    "{policy:?} gave {got}, want {value}"
                );
            }
        }

        /// Minimum never exceeds Median, and Median never exceeds neither
        /// Mean-plus-spread nor Maximum: the summaries order the way the
        /// paper's methodology assumes when it prefers the minimum.
        #[test]
        fn policies_order_correctly(values in proptest::collection::vec(0.0f64..1e9, 1..64)) {
            let s = Samples::from_values(values.iter().copied());
            let min = s.summarize(SummaryPolicy::Minimum).unwrap();
            let median = s.summarize(SummaryPolicy::Median).unwrap();
            prop_assert!(min <= median, "min {min} above median {median}");
            prop_assert!(median <= s.max().unwrap());
            prop_assert!(min <= s.summarize(SummaryPolicy::Mean).unwrap() + 1e-9);
        }

        /// CV is scale-invariant: multiplying every sample by a constant
        /// leaves the relative dispersion unchanged.
        #[test]
        fn cv_is_scale_invariant(values in proptest::collection::vec(1.0f64..1e6, 2..32), scale in 1.0f64..1e3) {
            let s = Samples::from_values(values.iter().copied());
            let scaled = Samples::from_values(values.iter().map(|v| v * scale));
            prop_assert!((s.cv() - scaled.cv()).abs() < 1e-9);
        }
    }
}

#[cfg(test)]
mod reference_equivalence {
    //! The order queries must answer bit for bit what the original
    //! clone-and-sort code did: one fresh sorted copy per percentile.

    use super::*;
    use crate::quality::Quality;
    use crate::sim::SplitMix;

    fn sorted_copy(values: &[f64]) -> Vec<f64> {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        sorted
    }

    fn percentile(values: &[f64], p: f64) -> Option<f64> {
        if !(0.0..=100.0).contains(&p) || values.is_empty() {
            return None;
        }
        let sorted = sorted_copy(values);
        let rank = (p / 100.0) * (sorted.len() - 1) as f64;
        let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
        let frac = rank - rank.floor();
        Some(sorted[lo] + frac * (sorted[hi] - sorted[lo]))
    }

    fn outliers(values: &[f64]) -> usize {
        let (Some(q1), Some(q3)) = (percentile(values, 25.0), percentile(values, 75.0)) else {
            return 0;
        };
        let fence = 1.5 * (q3 - q1);
        let (lo, hi) = (q1 - fence, q3 + fence);
        values.iter().filter(|&&v| v < lo || v > hi).count()
    }

    fn outlier_fraction(values: &[f64]) -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        outliers(values) as f64 / values.len() as f64
    }

    fn quality(samples: &Samples) -> Quality {
        if samples.len() < 2 {
            return Quality::Suspect;
        }
        Quality::grade(samples.cv(), outlier_fraction(samples.values()))
    }

    /// Sets of every length 0..=300 in four shapes: a tie-heavy palette
    /// with both zeros and negatives, wide signed noise, a flat floor with
    /// rare spikes, and a descending ramp.
    fn corpus() -> Vec<Vec<f64>> {
        const PALETTE: [f64; 9] = [-3.5, -1.0, -0.0, 0.0, 0.0, 2.0, 2.0, 7.25, 1e9];
        let mut rng = SplitMix::new(0x5EED_50F7);
        let mut sets = Vec::new();
        for len in 0..=300usize {
            for shape in 0..4 {
                let set = (0..len)
                    .map(|i| match shape {
                        0 => PALETTE[(rng.next_u64() % PALETTE.len() as u64) as usize],
                        1 => (rng.uniform() - 0.5) * 1e4,
                        2 if rng.uniform() < 0.03 => 500.0 + rng.uniform() * 1e3,
                        2 => 100.0,
                        _ => (len - i) as f64 * 0.5 - 10.0,
                    })
                    .collect();
                sets.push(set);
            }
        }
        sets
    }

    fn bits(x: Option<f64>) -> Option<u64> {
        x.map(f64::to_bits)
    }

    const PERCENTILES: [f64; 12] = [
        0.0,
        1.0,
        25.0,
        33.3,
        50.0,
        75.0,
        90.0,
        99.0,
        100.0,
        -1.0,
        101.0,
        f64::NAN,
    ];

    #[test]
    fn order_queries_match_the_clone_and_sort_reference() {
        for values in corpus() {
            let s = Samples::from_values(values.iter().copied());
            for p in PERCENTILES {
                assert_eq!(
                    bits(s.percentile(p)),
                    bits(percentile(&values, p)),
                    "p{p} of {values:?}"
                );
            }
            let iqr = percentile(&values, 75.0)
                .zip(percentile(&values, 25.0))
                .map(|(q3, q1)| q3 - q1);
            assert_eq!(bits(s.iqr()), bits(iqr), "iqr of {values:?}");
            assert_eq!(s.outliers(), outliers(&values), "outliers of {values:?}");
            assert_eq!(
                s.outlier_fraction().to_bits(),
                outlier_fraction(&values).to_bits(),
                "outlier fraction of {values:?}"
            );
            assert_eq!(
                Quality::from_samples(&s),
                quality(&s),
                "grade of {values:?}"
            );

            // One sorted view answers all of it.
            let sorted = s.sorted();
            let want: Vec<u64> = sorted_copy(&values).into_iter().map(f64::to_bits).collect();
            let got: Vec<u64> = sorted.values().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "order of {values:?}");
            for p in PERCENTILES {
                assert_eq!(bits(sorted.percentile(p)), bits(percentile(&values, p)));
            }
            assert_eq!(bits(sorted.iqr()), bits(iqr));
            assert_eq!(sorted.outliers(), outliers(&values));
            assert_eq!(Quality::from_sorted(&sorted), quality(&s));
        }
    }
}
