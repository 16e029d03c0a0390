//! Measurement-quality grading: can this number be trusted?
//!
//! The paper's §3.4 ("Variability") documents up to 30% run-to-run
//! variation and prescribes min-of-N as the noise filter — but the
//! original tools never told the reader *how noisy* a given cell was. A
//! [`Quality`] grade condenses a repetition set's dispersion (coefficient
//! of variation) and contamination (IQR-outlier fraction) into one of
//! three labels that travel with every reported number, so a consumer can
//! decide whether a delta against it means anything.

use crate::stats::{Samples, Sorted};
use std::fmt;

/// CV at or below which a measurement is considered quiet.
pub const GOOD_CV: f64 = 0.10;
/// CV above which a measurement is suspect — the paper's observed "up to
/// 30%" variability marks the boundary between noisy-but-usable and
/// not-to-be-trusted.
pub const SUSPECT_CV: f64 = 0.30;
/// Outlier fraction above which even a low-CV measurement is only noisy.
pub const GOOD_OUTLIER_FRACTION: f64 = 0.20;

/// How trustworthy one measurement's repetition set is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Quality {
    /// Tight samples: CV ≤ 10% and few outliers. Deltas beyond the CV band
    /// are meaningful.
    Good,
    /// Visible scheduler/cache disturbance (CV ≤ 30%, or a clean CV with a
    /// contaminated tail). Usable with wide error bars.
    Noisy,
    /// Dispersion beyond the paper's worst-case expectation, or too few
    /// samples to judge. Treat deltas against this number as unknown.
    Suspect,
}

impl Quality {
    /// Grades a repetition set.
    ///
    /// Fewer than two samples grade `Suspect`: with no dispersion
    /// information the honest answer is "cannot assess", not "quiet".
    #[must_use]
    pub fn from_samples(samples: &Samples) -> Quality {
        Quality::from_sorted(&samples.sorted())
    }

    /// Grades a repetition set from a sorted view the caller already
    /// holds, so percentiles and the grade share one sort. Same rules as
    /// [`Quality::from_samples`]; the CV still sums in insertion order.
    #[must_use]
    pub fn from_sorted(sorted: &Sorted<'_>) -> Quality {
        let samples = sorted.samples();
        if samples.len() < 2 {
            return Quality::Suspect;
        }
        Quality::grade(samples.cv(), sorted.outlier_fraction())
    }

    /// Grades a repetition set of which `clamped` samples were floored at
    /// 0.0 by clock-overhead compensation.
    ///
    /// Any clamped sample forces `Suspect`: the set contains values that
    /// are floors rather than measurements, and a floor of identical zeros
    /// would otherwise grade as a perfectly quiet `Good` set. This is the
    /// grade [`crate::Measurement::quality`] reports.
    #[must_use]
    pub fn from_samples_with_clamped(samples: &Samples, clamped: u32) -> Quality {
        if clamped > 0 {
            return Quality::Suspect;
        }
        Quality::from_samples(samples)
    }

    /// Grades a (CV, outlier-fraction) pair directly.
    #[must_use]
    pub fn grade(cv: f64, outlier_fraction: f64) -> Quality {
        if !cv.is_finite() || cv > SUSPECT_CV {
            Quality::Suspect
        } else if cv > GOOD_CV || outlier_fraction > GOOD_OUTLIER_FRACTION {
            Quality::Noisy
        } else {
            Quality::Good
        }
    }

    /// Short lowercase tag used in reports, traces and JSON ("good",
    /// "noisy", "suspect").
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Quality::Good => "good",
            Quality::Noisy => "noisy",
            Quality::Suspect => "suspect",
        }
    }

    /// Parses a [`Quality::label`] back.
    #[must_use]
    pub fn from_label(label: &str) -> Option<Quality> {
        match label {
            "good" => Some(Quality::Good),
            "noisy" => Some(Quality::Noisy),
            "suspect" => Some(Quality::Suspect),
            _ => None,
        }
    }

    /// Numeric severity (0 good, 1 noisy, 2 suspect) for metric streams
    /// that only carry `f64` values.
    #[must_use]
    pub fn severity(self) -> f64 {
        match self {
            Quality::Good => 0.0,
            Quality::Noisy => 1.0,
            Quality::Suspect => 2.0,
        }
    }
}

impl fmt::Display for Quality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(values: &[f64]) -> Samples {
        Samples::from_values(values.iter().copied())
    }

    #[test]
    fn quiet_samples_grade_good() {
        let s = sample(&[100.0, 101.0, 99.5, 100.2, 100.8]);
        assert!(s.cv() < GOOD_CV);
        assert_eq!(Quality::from_samples(&s), Quality::Good);
    }

    #[test]
    fn moderate_dispersion_grades_noisy() {
        // CV around 18%: inside the paper's expected variability.
        let s = sample(&[100.0, 120.0, 80.0, 130.0, 95.0]);
        let cv = s.cv();
        assert!(cv > GOOD_CV && cv <= SUSPECT_CV, "cv {cv}");
        assert_eq!(Quality::from_samples(&s), Quality::Noisy);
    }

    #[test]
    fn wild_dispersion_grades_suspect() {
        let s = sample(&[100.0, 400.0, 50.0, 900.0]);
        assert!(s.cv() > SUSPECT_CV);
        assert_eq!(Quality::from_samples(&s), Quality::Suspect);
    }

    #[test]
    fn outlier_contamination_demotes_a_quiet_cv() {
        // Low CV but a contaminated tail: 2 of 8 samples outside the
        // fences is > 20%.
        assert_eq!(Quality::grade(0.05, 0.25), Quality::Noisy);
        assert_eq!(Quality::grade(0.05, 0.10), Quality::Good);
    }

    #[test]
    fn too_few_samples_cannot_be_assessed() {
        assert_eq!(Quality::from_samples(&Samples::new()), Quality::Suspect);
        assert_eq!(Quality::from_samples(&sample(&[5.0])), Quality::Suspect);
    }

    #[test]
    fn clamped_samples_force_suspect_even_when_quiet() {
        // All-zero (all-clamped) sets are the pathological case: zero CV
        // would grade Good, but nothing was actually measured.
        let zeros = sample(&[0.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(Quality::from_samples(&zeros), Quality::Good);
        assert_eq!(
            Quality::from_samples_with_clamped(&zeros, 5),
            Quality::Suspect
        );
        // One clamped sample in an otherwise quiet set still taints it.
        let mostly_fine = sample(&[0.0, 100.0, 101.0, 99.0, 100.5]);
        assert_eq!(
            Quality::from_samples_with_clamped(&mostly_fine, 1),
            Quality::Suspect
        );
        // No clamps: same grade as the plain path.
        let quiet = sample(&[100.0, 101.0, 99.5]);
        assert_eq!(
            Quality::from_samples_with_clamped(&quiet, 0),
            Quality::from_samples(&quiet)
        );
    }

    #[test]
    fn non_finite_cv_is_suspect() {
        assert_eq!(Quality::grade(f64::NAN, 0.0), Quality::Suspect);
        assert_eq!(Quality::grade(f64::INFINITY, 0.0), Quality::Suspect);
    }

    #[test]
    fn labels_roundtrip_and_order() {
        for q in [Quality::Good, Quality::Noisy, Quality::Suspect] {
            assert_eq!(Quality::from_label(q.label()), Some(q));
            assert_eq!(q.to_string(), q.label());
        }
        assert_eq!(Quality::from_label("excellent"), None);
        assert!(Quality::Good < Quality::Noisy);
        assert!(Quality::Noisy < Quality::Suspect);
        assert!(Quality::Good.severity() < Quality::Suspect.severity());
    }
}
