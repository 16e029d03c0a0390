//! Noise-aware run-over-run comparison.
//!
//! The paper (§3.4) observes up to 30% run-to-run variation, which is why
//! a naive "this run is 8% slower" comparison of two suite runs is
//! meaningless: the question is whether a delta exceeds *that
//! measurement's own* noise band. The differ judges every archived metric
//! against the coefficient of variation its provenance recorded, so a
//! perf PR's claim can be checked from two report artifacts alone — the
//! Measure-Explain-Test-Improve loop's "test" step as a first-class
//! operation.

use crate::runreport::{BenchRecord, MetricValue, RunReport};
use serde::{Deserialize, Serialize};
use std::fmt;

/// When a delta counts as significant.
///
/// The band around "unchanged" is `max(floor, cv_multiplier · cv)` with
/// `cv` the wider of the two runs' recorded dispersions: a quiet
/// measurement gets a tight gate, a noisy one a wide gate, and nothing is
/// judged more finely than `floor` — the paper's variability observation
/// as a guard against false regressions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignificanceRule {
    /// How many CVs of headroom a delta gets before it is significant.
    pub cv_multiplier: f64,
    /// Minimum relative band, whatever the CV claims.
    pub floor: f64,
}

impl Default for SignificanceRule {
    fn default() -> Self {
        SignificanceRule {
            cv_multiplier: 3.0,
            floor: 0.25,
        }
    }
}

/// The verdict on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum DiffClass {
    /// Moved beyond the band, in the metric's direction of merit.
    Improved,
    /// Moved beyond the band, against the metric's direction of merit.
    Regressed,
    /// Within the noise band.
    Unchanged,
    /// Cannot be judged: missing on one side, a non-ok status, a unit
    /// with no direction of merit, or a suspect measurement whose delta
    /// stayed inside its (widened) band. A suspect side that still moves
    /// beyond the band is judged, not hidden — a grader flag must never
    /// mask a gross regression from the CI gate.
    Unknown,
}

impl DiffClass {
    /// Lowercase tag for tables and JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DiffClass::Improved => "improved",
            DiffClass::Regressed => "regressed",
            DiffClass::Unchanged => "unchanged",
            DiffClass::Unknown => "unknown",
        }
    }
}

/// Direction of merit implied by a unit name.
fn merit(unit: &str) -> Option<bool> {
    // Some(true): higher is better; Some(false): lower is better.
    // `ops/s` is the scale runner's rate unit for round-trip benchmarks.
    // `ipc` (instructions per cycle) and `pki` (misses per
    // kilo-instruction) are the hardware-counter figures of merit: an
    // IPC drop or a miss-rate rise past the band is a regression.
    // `x` is a dimensionless penalty ratio (the load runner's omission
    // gap: open-loop p99 over closed-loop p99) — growth means the
    // service hides more queueing at load, so lower is better.
    match unit {
        "MB/s" | "ops/s" | "ipc" => Some(true),
        "us" | "ms" | "ns" | "pki" | "x" => Some(false),
        _ => None,
    }
}

/// One metric's run-over-run verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiffRow {
    /// Benchmark name.
    pub bench: String,
    /// Metric label within the benchmark (may be empty for single-metric
    /// benchmarks).
    pub metric: String,
    /// Unit name.
    pub unit: String,
    /// Baseline value (NaN when missing there).
    pub baseline: f64,
    /// Current value (NaN when missing there).
    pub current: f64,
    /// `(current - baseline) / baseline`; 0.0 when unjudgeable.
    pub delta_frac: f64,
    /// The significance band the delta was judged against.
    pub band_frac: f64,
    /// The verdict.
    pub class: DiffClass,
    /// Why the verdict is `Unknown`, empty otherwise.
    pub note: String,
}

/// Every metric of two runs, judged.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ReportDiff {
    /// One row per (benchmark, metric) present in either run.
    pub rows: Vec<DiffRow>,
}

impl ReportDiff {
    /// Diffs `current` against `baseline` under the default rule.
    #[must_use]
    pub fn between(baseline: &RunReport, current: &RunReport) -> ReportDiff {
        ReportDiff::with_rule(baseline, current, SignificanceRule::default())
    }

    /// Diffs `current` against `baseline` under an explicit rule.
    #[must_use]
    pub fn with_rule(
        baseline: &RunReport,
        current: &RunReport,
        rule: SignificanceRule,
    ) -> ReportDiff {
        let mut rows = Vec::new();
        let mut seen: Vec<&str> = Vec::new();
        for base_rec in &baseline.records {
            seen.push(base_rec.name.as_str());
            diff_bench(
                Some(base_rec),
                current.find(&base_rec.name),
                rule,
                &mut rows,
            );
        }
        for cur_rec in &current.records {
            if !seen.contains(&cur_rec.name.as_str()) {
                diff_bench(None, Some(cur_rec), rule, &mut rows);
            }
        }
        diff_harness(baseline, current, rule, &mut rows);
        ReportDiff { rows }
    }

    /// Rows judged significant regressions.
    pub fn regressions(&self) -> impl Iterator<Item = &DiffRow> {
        self.rows.iter().filter(|r| r.class == DiffClass::Regressed)
    }

    /// True if any metric regressed beyond its band — the CI gate.
    #[must_use]
    pub fn has_regressions(&self) -> bool {
        self.regressions().next().is_some()
    }

    /// Count of rows with the given class.
    #[must_use]
    pub fn count(&self, class: DiffClass) -> usize {
        self.rows.iter().filter(|r| r.class == class).count()
    }

    /// Serializes to pretty-printed JSON (the `diff --json` output).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("diff types always serialize")
    }

    /// Parses [`ReportDiff::to_json`] output back.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// The regression table: one fixed-width row per metric plus a
    /// summary line.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<16} {:<18} {:<5} {:>12} {:>12} {:>8} {:>7}  {:<10} {}\n",
            "benchmark", "metric", "unit", "baseline", "current", "delta", "band", "class", "note"
        ));
        for r in &self.rows {
            let value = |v: f64| {
                if v.is_finite() {
                    format!("{v:.2}")
                } else {
                    "-".to_string()
                }
            };
            out.push_str(&format!(
                "{:<16} {:<18} {:<5} {:>12} {:>12} {:>+7.1}% {:>6.1}%  {:<10} {}\n",
                r.bench,
                if r.metric.is_empty() {
                    "(result)"
                } else {
                    &r.metric
                },
                r.unit,
                value(r.baseline),
                value(r.current),
                r.delta_frac * 100.0,
                r.band_frac * 100.0,
                r.class.label(),
                r.note
            ));
        }
        out.push_str(&format!(
            "{} improved, {} regressed, {} unchanged, {} unknown of {} metrics\n",
            self.count(DiffClass::Improved),
            self.count(DiffClass::Regressed),
            self.count(DiffClass::Unchanged),
            self.count(DiffClass::Unknown),
            self.rows.len()
        ));
        out
    }
}

impl fmt::Display for ReportDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Appends one row per metric label present on either side of a bench
/// pairing.
fn diff_bench(
    base: Option<&BenchRecord>,
    cur: Option<&BenchRecord>,
    rule: SignificanceRule,
    rows: &mut Vec<DiffRow>,
) {
    fn metrics(rec: Option<&BenchRecord>) -> &[MetricValue] {
        rec.map(|r| r.metrics.as_slice()).unwrap_or(&[])
    }
    let name = base.or(cur).expect("one side present").name.clone();
    let mut labels: Vec<(&str, &str)> = Vec::new();
    for m in metrics(base).iter().chain(metrics(cur)) {
        if !labels.iter().any(|(l, _)| *l == m.label.as_str()) {
            labels.push((&m.label, &m.unit));
        }
    }
    if labels.is_empty() {
        // Nothing measurable on either side (sys_info rows, double skips):
        // nothing to judge, nothing to alarm on.
        return;
    }
    for (label, unit) in labels {
        let find = |rec: Option<&BenchRecord>| {
            metrics(rec)
                .iter()
                .find(|m| m.label == label)
                .map(|m| m.value)
        };
        let (bv, cv_val) = (find(base), find(cur));
        let mut row = DiffRow {
            bench: name.clone(),
            metric: label.to_string(),
            unit: unit.to_string(),
            baseline: bv.unwrap_or(f64::NAN),
            current: cv_val.unwrap_or(f64::NAN),
            delta_frac: 0.0,
            band_frac: rule.floor,
            class: DiffClass::Unknown,
            note: String::new(),
        };
        if let Some(note) = unjudgeable(base, cur, bv, cv_val) {
            row.note = note;
            rows.push(row);
            continue;
        }
        let (bv, cv_val) = (bv.unwrap(), cv_val.unwrap());
        let noise = |rec: Option<&BenchRecord>| {
            rec.and_then(|r| r.provenance.as_ref())
                .map(|p| p.cv)
                .filter(|cv| cv.is_finite())
                .unwrap_or(0.0)
        };
        // A suspect grade means the measurement's own spread is untrust-
        // worthy, so its (large) CV widens the band — but it must not
        // erase the comparison: values that still move beyond even the
        // widened band are a finding the grader flag cannot veto. (Found
        // by scenario fuzzing: a cost knee graded the baseline suspect
        // and a scripted 10x regression sailed through the CI gate as
        // "unknown".)
        let suspect = suspect_note(base, cur);
        let band = rule
            .floor
            .max(rule.cv_multiplier * noise(base).max(noise(cur)));
        let delta = (cv_val - bv) / bv;
        row.delta_frac = delta;
        row.band_frac = band;
        row.class = if delta.abs() <= band {
            match suspect {
                Some(note) => {
                    row.note = note;
                    DiffClass::Unknown
                }
                None => DiffClass::Unchanged,
            }
        } else {
            match merit(unit) {
                Some(higher_better) => {
                    if let Some(note) = suspect {
                        row.note = format!("{note}, beyond its widened band");
                    }
                    if (delta > 0.0) == higher_better {
                        DiffClass::Improved
                    } else {
                        DiffClass::Regressed
                    }
                }
                None => {
                    row.note = "no direction of merit for unit".into();
                    DiffClass::Unknown
                }
            }
        };
        rows.push(row);
    }
}

/// Relative band for harness self-budget rows: 100%, far wider than any
/// benchmark band. Suite wall time swings with machine load in ways no
/// provenance CV captures, so only a gross blowup (the scripted 10×
/// drill, a runaway retry loop) should alarm — a slow CI host must not.
const HARNESS_BAND: f64 = 1.0;

/// Absolute materiality floor for harness phases. A sub-millisecond
/// phase (warm-up on a quick run, say) can swing several hundred
/// percent between two healthy runs while costing nothing; a delta
/// must be large relatively AND absolutely before it alarms.
const HARNESS_ABS_FLOOR_MS: f64 = 1.0;

/// Appends the harness self-budget rows: per-phase wall time, lower is
/// better, judged against [`HARNESS_BAND`]. Reports without a budget on
/// either side contribute no rows — an older baseline or a hand-built
/// report must never alarm on infrastructure it did not measure.
fn diff_harness(
    baseline: &RunReport,
    current: &RunReport,
    rule: SignificanceRule,
    rows: &mut Vec<DiffRow>,
) {
    let (Some(b), Some(c)) = (&baseline.harness, &current.harness) else {
        return;
    };
    let band = HARNESS_BAND.max(rule.floor);
    for (metric, bv, cv) in [
        ("suite_ms", b.suite_ms, c.suite_ms),
        ("probe_ms", b.probe_ms, c.probe_ms),
        ("warmup_ms", b.warmup_ms, c.warmup_ms),
        ("calibrate_ms", b.calibrate_ms, c.calibrate_ms),
        ("attempt_ms", b.attempt_ms, c.attempt_ms),
        ("retry_ms", b.retry_ms, c.retry_ms),
    ] {
        if bv <= 0.0 && cv <= 0.0 {
            // The phase ran in neither report (no retries, say): nothing
            // to judge, nothing to clutter the table with.
            continue;
        }
        let mut row = DiffRow {
            bench: "(harness)".into(),
            metric: metric.into(),
            unit: "ms".into(),
            baseline: bv,
            current: cv,
            delta_frac: 0.0,
            band_frac: band,
            class: DiffClass::Unknown,
            note: String::new(),
        };
        if !(bv.is_finite() && bv > 0.0) {
            row.note = "baseline value unusable".into();
        } else if !cv.is_finite() {
            row.note = "current value unusable".into();
        } else {
            let delta = (cv - bv) / bv;
            row.delta_frac = delta;
            row.class = if delta.abs() <= band || (cv - bv).abs() <= HARNESS_ABS_FLOOR_MS {
                DiffClass::Unchanged
            } else if delta > 0.0 {
                DiffClass::Regressed
            } else {
                DiffClass::Improved
            };
        }
        rows.push(row);
    }
}

/// The reason this metric pairing cannot be judged at all, if any: a
/// side that is missing, did not finish, or produced no usable value.
/// (A *suspect* grade is not in this list — it degrades confidence, via
/// [`suspect_note`] and a widened band, but both values exist and a
/// gross move between them is still a judgment.)
fn unjudgeable(
    base: Option<&BenchRecord>,
    cur: Option<&BenchRecord>,
    bv: Option<f64>,
    cv: Option<f64>,
) -> Option<String> {
    let side = |rec: Option<&BenchRecord>, which: &str| -> Option<String> {
        match rec {
            None => Some(format!("benchmark missing in {which}")),
            Some(r) if !r.status.is_ok() => Some(format!("{} in {which}", r.status.label())),
            Some(_) => None,
        }
    };
    side(base, "baseline")
        .or_else(|| side(cur, "current"))
        .or_else(|| match (bv, cv) {
            (None, _) => Some("metric missing in baseline".into()),
            (_, None) => Some("metric missing in current".into()),
            (Some(b), _) if !(b.is_finite() && b > 0.0) => Some("baseline value unusable".into()),
            (_, Some(c)) if !c.is_finite() => Some("current value unusable".into()),
            _ => None,
        })
}

/// A note naming the first side whose measurement graded `suspect`,
/// if either did.
fn suspect_note(base: Option<&BenchRecord>, cur: Option<&BenchRecord>) -> Option<String> {
    let side = |rec: Option<&BenchRecord>, which: &str| -> Option<String> {
        rec.filter(|r| {
            r.provenance
                .as_ref()
                .is_some_and(|p| p.quality == "suspect")
        })
        .map(|_| format!("suspect measurement in {which}"))
    };
    side(base, "baseline").or_else(|| side(cur, "current"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runreport::{BenchStatus, Provenance};

    fn provenance(cv: f64, quality: &str) -> Provenance {
        Provenance {
            repetitions: 5,
            warmup_runs: 1,
            calibrated_iterations: 1024,
            clock_resolution_ns: 30.0,
            sample_min_ns: 100.0,
            sample_median_ns: 104.0,
            sample_p90_ns: 110.0,
            sample_p99_ns: 112.0,
            sample_max_ns: 113.0,
            mad_ns: 2.0,
            min_median_gap: 0.04,
            cv,
            iqr_outliers: 0,
            quality: quality.into(),
            measure_calls: 1,
            clamped_samples: 0,
        }
    }

    fn record(name: &str, metrics: &[(&str, f64, &str)], cv: f64) -> BenchRecord {
        BenchRecord {
            name: name.into(),
            produces: "Table 7".into(),
            status: BenchStatus::Ok,
            attempts: 1,
            wall_ms: 5.0,
            exclusive: false,
            provenance: Some(provenance(cv, if cv > 0.30 { "suspect" } else { "good" })),
            rusage: None,
            counters: None,
            metrics: metrics
                .iter()
                .map(|(label, value, unit)| MetricValue {
                    label: (*label).into(),
                    value: *value,
                    unit: (*unit).into(),
                })
                .collect(),
            span: None,
        }
    }

    fn report(records: Vec<BenchRecord>) -> RunReport {
        RunReport {
            records,
            ..Default::default()
        }
    }

    #[test]
    fn identical_reports_have_no_regressions() {
        let a = report(vec![
            record("lat_syscall", &[("syscall", 4.1, "us")], 0.02),
            record("bw_mem", &[("read", 8000.0, "MB/s")], 0.05),
        ]);
        let diff = ReportDiff::between(&a, &a.clone());
        assert!(!diff.has_regressions(), "{}", diff.render());
        assert_eq!(diff.count(DiffClass::Unchanged), 2);
    }

    #[test]
    fn latency_blowup_beyond_band_is_a_regression() {
        let a = report(vec![record("lat_syscall", &[("syscall", 4.0, "us")], 0.02)]);
        let b = report(vec![record("lat_syscall", &[("syscall", 8.0, "us")], 0.02)]);
        let diff = ReportDiff::between(&a, &b);
        assert!(diff.has_regressions());
        let row = &diff.rows[0];
        assert_eq!(row.class, DiffClass::Regressed);
        assert!((row.delta_frac - 1.0).abs() < 1e-12);
        // Reverse direction: the same move in bandwidth is an improvement.
        let a = report(vec![record("bw", &[("read", 4000.0, "MB/s")], 0.02)]);
        let b = report(vec![record("bw", &[("read", 8000.0, "MB/s")], 0.02)]);
        assert_eq!(
            ReportDiff::between(&a, &b).rows[0].class,
            DiffClass::Improved
        );
    }

    #[test]
    fn ipc_is_a_higher_is_better_metric() {
        // Counter-derived rows flow through the same gate: an IPC drop
        // past the band is a regression, a rise is an improvement.
        let a = report(vec![record("bw_mem", &[("ipc", 2.0, "ipc")], 0.02)]);
        let b = report(vec![record("bw_mem", &[("ipc", 1.0, "ipc")], 0.02)]);
        let diff = ReportDiff::between(&a, &b);
        assert_eq!(diff.rows[0].class, DiffClass::Regressed);
        assert!(diff.has_regressions());
        assert_eq!(
            ReportDiff::between(&b, &a).rows[0].class,
            DiffClass::Improved
        );
    }

    #[test]
    fn miss_rates_are_lower_is_better_metrics() {
        let a = report(vec![record(
            "lat_mem",
            &[("cache_miss_pki", 2.0, "pki")],
            0.02,
        )]);
        let b = report(vec![record(
            "lat_mem",
            &[("cache_miss_pki", 8.0, "pki")],
            0.02,
        )]);
        let diff = ReportDiff::between(&a, &b);
        assert_eq!(diff.rows[0].class, DiffClass::Regressed);
        assert_eq!(
            ReportDiff::between(&b, &a).rows[0].class,
            DiffClass::Improved
        );
    }

    #[test]
    fn ipc_wiggle_inside_the_band_is_noise() {
        // The noise-aware rules apply to counter metrics unchanged: a
        // 10% IPC dip sits inside the 25% floor.
        let a = report(vec![record("bw_mem", &[("ipc", 2.0, "ipc")], 0.0)]);
        let b = report(vec![record("bw_mem", &[("ipc", 1.8, "ipc")], 0.0)]);
        let diff = ReportDiff::between(&a, &b);
        assert_eq!(diff.rows[0].class, DiffClass::Unchanged);
    }

    #[test]
    fn noisy_measurements_earn_wider_bands() {
        // 60% slower, but the baseline recorded cv = 0.28: band is
        // 3 x 0.28 = 84%, so the delta is noise, not a regression.
        let a = report(vec![record("lat_ctx", &[("ctx", 10.0, "us")], 0.28)]);
        let b = report(vec![record("lat_ctx", &[("ctx", 16.0, "us")], 0.02)]);
        let diff = ReportDiff::between(&a, &b);
        assert_eq!(
            diff.rows[0].class,
            DiffClass::Unchanged,
            "{}",
            diff.render()
        );
        assert!((diff.rows[0].band_frac - 0.84).abs() < 1e-12);
    }

    #[test]
    fn floor_protects_quiet_measurements_from_false_alarms() {
        // cv ~ 0: without the floor a 1% wiggle would alarm.
        let a = report(vec![record("lat_syscall", &[("syscall", 4.00, "us")], 0.0)]);
        let b = report(vec![record("lat_syscall", &[("syscall", 4.04, "us")], 0.0)]);
        let diff = ReportDiff::between(&a, &b);
        assert_eq!(diff.rows[0].class, DiffClass::Unchanged);
        assert_eq!(diff.rows[0].band_frac, SignificanceRule::default().floor);
    }

    #[test]
    fn suspect_and_missing_sides_are_unknown_not_alarms() {
        // A suspect side widens the band (3x its 0.9 CV here = 270%): a
        // 100% move hides inside it and stays Unknown, noted.
        let suspect = report(vec![record("lat_ctx", &[("ctx", 10.0, "us")], 0.9)]);
        let fine = report(vec![record("lat_ctx", &[("ctx", 20.0, "us")], 0.02)]);
        let diff = ReportDiff::between(&suspect, &fine);
        assert_eq!(diff.rows[0].class, DiffClass::Unknown);
        assert_eq!(diff.rows[0].band_frac, 2.7);
        assert!(
            diff.rows[0].note.contains("suspect"),
            "{}",
            diff.rows[0].note
        );

        let empty = report(vec![]);
        let diff = ReportDiff::between(&empty, &fine);
        assert_eq!(diff.rows[0].class, DiffClass::Unknown);
        assert!(diff.rows[0].note.contains("missing in baseline"));
        assert!(!diff.has_regressions());
    }

    #[test]
    fn suspect_side_cannot_veto_a_gross_regression() {
        // Found by scenario fuzzing (simfuzz seed 1): a cost knee graded
        // the baseline suspect (cv 0.31) and a scripted 10x regression
        // was classed Unknown — invisible to the has_regressions() gate.
        // A move beyond even the suspect-widened band must alarm.
        let knee = report(vec![record("lat_ctx", &[("ctx", 1.0, "us")], 0.31)]);
        let ten_x = report(vec![record("lat_ctx", &[("ctx", 10.0, "us")], 0.02)]);
        let diff = ReportDiff::between(&knee, &ten_x);
        assert_eq!(diff.rows[0].class, DiffClass::Regressed);
        assert!((diff.rows[0].band_frac - 0.93).abs() < 1e-9); // 3 x 0.31
        assert!(
            diff.rows[0]
                .note
                .contains("suspect measurement in baseline"),
            "{}",
            diff.rows[0].note
        );
        assert!(diff.has_regressions());
    }

    #[test]
    fn failed_benchmarks_are_unknown() {
        let mut bad = record("lat_syscall", &[("syscall", 4.0, "us")], 0.02);
        bad.status = BenchStatus::Failed("boom".into());
        let a = report(vec![record("lat_syscall", &[("syscall", 4.0, "us")], 0.02)]);
        let b = report(vec![bad]);
        let diff = ReportDiff::between(&a, &b);
        assert_eq!(diff.rows[0].class, DiffClass::Unknown);
        assert!(diff.rows[0].note.contains("failed in current"));
    }

    #[test]
    fn unmapped_units_never_regress() {
        let a = report(vec![record("disk", &[("overhead", 1.0, "widgets")], 0.0)]);
        let b = report(vec![record("disk", &[("overhead", 9.0, "widgets")], 0.0)]);
        let diff = ReportDiff::between(&a, &b);
        assert_eq!(diff.rows[0].class, DiffClass::Unknown);
        assert!(diff.rows[0].note.contains("direction of merit"));
    }

    #[test]
    fn a_growing_omission_gap_is_a_regression() {
        // `x` is the load runner's omission-gap ratio: open-loop p99 over
        // closed-loop p99. Growth means the service hides more queueing
        // at load, so the differ judges it lower-is-better.
        let a = report(vec![record("load_lat_pipe", &[("gap", 1.2, "x")], 0.0)]);
        let b = report(vec![record("load_lat_pipe", &[("gap", 9.0, "x")], 0.0)]);
        let diff = ReportDiff::between(&a, &b);
        assert_eq!(diff.rows[0].class, DiffClass::Regressed);
        assert_eq!(
            ReportDiff::between(&b, &a).rows[0].class,
            DiffClass::Improved
        );
    }

    #[test]
    fn custom_rule_tightens_the_gate() {
        let rule = SignificanceRule {
            cv_multiplier: 2.0,
            floor: 0.01,
        };
        let a = report(vec![record("lat_syscall", &[("syscall", 4.0, "us")], 0.0)]);
        let b = report(vec![record("lat_syscall", &[("syscall", 4.2, "us")], 0.0)]);
        let diff = ReportDiff::with_rule(&a, &b, rule);
        assert_eq!(diff.rows[0].class, DiffClass::Regressed);
    }

    #[test]
    fn render_and_json_roundtrip() {
        let a = report(vec![
            record("lat_syscall", &[("syscall", 4.0, "us")], 0.02),
            record("bw_mem", &[("read", 8000.0, "MB/s")], 0.05),
        ]);
        let b = report(vec![
            record("lat_syscall", &[("syscall", 12.0, "us")], 0.02),
            record("bw_mem", &[("read", 8100.0, "MB/s")], 0.05),
        ]);
        let diff = ReportDiff::between(&a, &b);
        let text = diff.render();
        assert!(text.contains("regressed"), "{text}");
        assert!(
            text.contains("1 improved") || text.contains("0 improved"),
            "{text}"
        );
        assert!(text.contains("of 2 metrics"), "{text}");
        let back = ReportDiff::from_json(&diff.to_json()).expect("parse own JSON");
        assert_eq!(back, diff);
    }

    #[test]
    fn classes_serialize_as_their_table_labels() {
        use DiffClass::*;
        for class in [Improved, Regressed, Unchanged, Unknown] {
            let json = serde_json::to_string(&class).unwrap();
            assert_eq!(json, format!("\"{}\"", class.label()));
            assert_eq!(serde_json::from_str::<DiffClass>(&json), Ok(class));
        }
        assert!(serde_json::from_str::<DiffClass>("\"worse\"").is_err());
    }

    fn budget(suite_ms: f64) -> crate::runreport::HarnessMetrics {
        crate::runreport::HarnessMetrics {
            suite_ms,
            probe_ms: suite_ms / 100.0,
            warmup_ms: suite_ms / 10.0,
            calibrate_ms: suite_ms / 5.0,
            attempt_ms: suite_ms / 2.0,
            retry_ms: 0.0,
            trace_events: 100,
            trace_bytes: 10_000,
            trace_writes: 2,
            trace_dropped: 0,
        }
    }

    #[test]
    fn harness_budget_blowup_is_a_regression() {
        // The acceptance drill: a 10x suite-time blowup must alarm even
        // though every benchmark number is identical.
        let mut a = report(vec![record("lat_syscall", &[("syscall", 4.0, "us")], 0.02)]);
        a.harness = Some(budget(1_000.0));
        let mut b = a.clone();
        b.harness = Some(budget(10_000.0));
        let diff = ReportDiff::between(&a, &b);
        assert!(diff.has_regressions(), "{}", diff.render());
        let row = diff
            .rows
            .iter()
            .find(|r| r.bench == "(harness)" && r.metric == "suite_ms")
            .expect("suite_ms row");
        assert_eq!(row.class, DiffClass::Regressed);
        assert!((row.delta_frac - 9.0).abs() < 1e-12);
        assert_eq!(row.unit, "ms");
        // Both sides report zero retry time: the phase never ran, so it
        // must not appear at all.
        assert!(!diff.rows.iter().any(|r| r.metric == "retry_ms"));
    }

    #[test]
    fn harness_budget_tolerates_wide_wall_clock_swings() {
        // CI hosts differ: 80% slower is inside the 100% harness band
        // even though it would blow through every benchmark band.
        let mut a = report(vec![record("lat_syscall", &[("syscall", 4.0, "us")], 0.02)]);
        a.harness = Some(budget(1_000.0));
        let mut b = a.clone();
        b.harness = Some(budget(1_800.0));
        let diff = ReportDiff::between(&a, &b);
        assert!(!diff.has_regressions(), "{}", diff.render());
        let row = diff
            .rows
            .iter()
            .find(|r| r.bench == "(harness)" && r.metric == "suite_ms")
            .expect("suite_ms row");
        assert_eq!(row.class, DiffClass::Unchanged);
        assert_eq!(row.band_frac, 1.0);
    }

    #[test]
    fn sub_millisecond_phase_swings_are_immaterial() {
        // A quick run's warm-up is a few microseconds; tripling it is a
        // huge relative delta on a cost nobody can feel. The absolute
        // materiality floor keeps it quiet; a delta that is large both
        // relatively and absolutely still alarms.
        let mut a = report(vec![record("lat_syscall", &[("syscall", 4.0, "us")], 0.02)]);
        let mut base = budget(1_000.0);
        base.warmup_ms = 0.004;
        a.harness = Some(base);
        let mut b = a.clone();
        let mut cur = budget(1_000.0);
        cur.warmup_ms = 0.011; // +175%, but only 7 microseconds
        b.harness = Some(cur);
        let diff = ReportDiff::between(&a, &b);
        assert!(!diff.has_regressions(), "{}", diff.render());
        let row = diff
            .rows
            .iter()
            .find(|r| r.bench == "(harness)" && r.metric == "warmup_ms")
            .expect("warmup_ms row");
        assert_eq!(row.class, DiffClass::Unchanged);

        // The same relative swing at material scale is a real alarm.
        a.harness.as_mut().unwrap().warmup_ms = 100.0;
        b.harness.as_mut().unwrap().warmup_ms = 275.0;
        let diff = ReportDiff::between(&a, &b);
        assert!(
            diff.rows
                .iter()
                .any(|r| r.metric == "warmup_ms" && r.class == DiffClass::Regressed),
            "{}",
            diff.render()
        );
    }

    #[test]
    fn missing_harness_budget_never_alarms() {
        // Older baselines predate the self-budget; the differ must stay
        // silent about infrastructure they did not measure.
        let a = report(vec![record("lat_syscall", &[("syscall", 4.0, "us")], 0.02)]);
        let mut b = a.clone();
        b.harness = Some(budget(10_000.0));
        for (base, cur) in [(&a, &b), (&b, &a), (&a, &a)] {
            let diff = ReportDiff::between(base, cur);
            assert!(!diff.has_regressions(), "{}", diff.render());
            assert!(
                !diff.rows.iter().any(|r| r.bench == "(harness)"),
                "{}",
                diff.render()
            );
        }
    }

    #[test]
    fn zero_baseline_phase_is_unknown_not_an_alarm() {
        // retry_ms goes 0 -> 50: no relative judgement exists. The row
        // shows up as unknown, never as a regression.
        let mut a = report(vec![record("lat_syscall", &[("syscall", 4.0, "us")], 0.02)]);
        a.harness = Some(budget(1_000.0));
        let mut b = a.clone();
        let mut h = budget(1_000.0);
        h.retry_ms = 50.0;
        b.harness = Some(h);
        let diff = ReportDiff::between(&a, &b);
        assert!(!diff.has_regressions(), "{}", diff.render());
        let row = diff
            .rows
            .iter()
            .find(|r| r.metric == "retry_ms")
            .expect("retry row");
        assert_eq!(row.class, DiffClass::Unknown);
        assert!(row.note.contains("unusable"), "{}", row.note);
    }

    #[test]
    fn benchmarks_only_in_current_are_reported_unknown() {
        let a = report(vec![]);
        let b = report(vec![record("lat_new", &[("new", 1.0, "us")], 0.0)]);
        let diff = ReportDiff::between(&a, &b);
        assert_eq!(diff.rows.len(), 1);
        assert_eq!(diff.rows[0].bench, "lat_new");
        assert_eq!(diff.rows[0].class, DiffClass::Unknown);
    }
}
