//! Load-scaling curves: how a benchmark degrades under concurrent load.
//!
//! The paper measures one client against one resource; these types carry
//! the answer to the follow-up question a server operator asks — what
//! happens to latency and aggregate throughput when P generators hit the
//! same resource at once. One [`ScalingCurve`] holds one benchmark's
//! sweep over P = 1, 2, 4, …: aggregate throughput, p50/p99
//! latency-under-load, parallel efficiency against the P = 1 point, and a
//! per-point quality grade, all of which round-trip through the
//! [`crate::RunReport`] JSON so the noise-aware differ can gate on them.

use serde::{Deserialize, Serialize};
use std::fmt;

/// One generator's contribution to a P-point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratorSample {
    /// Generator index within the point, `0..p`.
    pub index: u32,
    /// This generator's own sustained rate, in the curve's unit.
    pub throughput: f64,
    /// Coefficient of variation across this generator's repetitions.
    pub cv: f64,
    /// Quality grade of this generator's repetition set.
    pub quality: String,
}

/// One measured point of a scaling sweep: everything P concurrent
/// generators produced together.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ScalePoint {
    /// Concurrent generators at this point.
    pub p: u32,
    /// Operations completed across all generators' timed repetitions.
    pub ops: u64,
    /// Aggregate throughput (sum of per-generator rates), in the curve's
    /// unit.
    pub throughput: f64,
    /// Median per-operation latency across all generators' samples, µs.
    pub p50_us: f64,
    /// 99th-percentile per-operation latency across all samples, µs.
    pub p99_us: f64,
    /// Coefficient of variation of the pooled samples — the noise band a
    /// differ should judge this point against.
    pub cv: f64,
    /// Quality grade of the pooled samples ("good", "noisy", "suspect").
    pub quality: String,
    /// `throughput / (p × throughput(P=1))`: 1.0 is perfect scaling.
    /// `None` when it cannot be judged — this point failed, or the
    /// P = 1 reference failed or measured zero throughput (a 0.0 or
    /// non-finite ratio would leak into JSON as a fake number).
    pub efficiency: Option<f64>,
    /// Per-generator breakdown, index order.
    pub generators: Vec<GeneratorSample>,
    /// Why the point failed (a generator panicked or could not be built);
    /// `None` for measured points. A failed point carries zeros elsewhere.
    pub error: Option<String>,
}

impl ScalePoint {
    /// Did this point produce usable numbers?
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

/// One benchmark's load-scaling sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingCurve {
    /// Scalable-benchmark name (`bw_mem`, `lat_pipe`, ...).
    pub bench: String,
    /// Throughput unit (`MB/s` for byte movers, `ops/s` for round trips).
    pub unit: String,
    /// Points in ascending P order (failed points included, marked).
    pub points: Vec<ScalePoint>,
}

impl ScalingCurve {
    /// The measured P = 1 reference point, if it succeeded.
    #[must_use]
    pub fn baseline(&self) -> Option<&ScalePoint> {
        self.points.iter().find(|pt| pt.p == 1 && pt.is_ok())
    }

    /// Points that produced usable numbers.
    pub fn ok_points(&self) -> impl Iterator<Item = &ScalePoint> {
        self.points.iter().filter(|pt| pt.is_ok())
    }

    /// Fills in each point's parallel efficiency from the P = 1 point.
    /// Points that cannot be judged — a failed point, a failed or
    /// zero-throughput baseline, a non-finite ratio — get `None` rather
    /// than a fabricated number.
    pub fn compute_efficiency(&mut self) {
        let base = self.baseline().map(|pt| pt.throughput);
        for pt in &mut self.points {
            pt.efficiency = match base {
                Some(b) if b > 0.0 && b.is_finite() && pt.is_ok() => {
                    let eff = pt.throughput / (f64::from(pt.p) * b);
                    eff.is_finite().then_some(eff)
                }
                _ => None,
            };
        }
    }

    /// Renders the curve as a paper-style fixed-width table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "=== {} under load (throughput in {}) ===\n",
            self.bench, self.unit
        ));
        out.push_str(&format!(
            "{:>4} {:>12} {:>10} {:>10} {:>6} {:>8}  {}\n",
            "P", "throughput", "p50(us)", "p99(us)", "eff", "quality", "detail"
        ));
        for pt in &self.points {
            match &pt.error {
                Some(reason) => out.push_str(&format!(
                    "{:>4} {:>12} {:>10} {:>10} {:>6} {:>8}  {}\n",
                    pt.p, "-", "-", "-", "-", "failed", reason
                )),
                None => {
                    let eff = pt
                        .efficiency
                        .map_or_else(|| "-".to_string(), |e| format!("{e:.2}"));
                    out.push_str(&format!(
                        "{:>4} {:>12.1} {:>10.2} {:>10.2} {:>6} {:>8}  \n",
                        pt.p, pt.throughput, pt.p50_us, pt.p99_us, eff, pt.quality
                    ));
                }
            }
        }
        out
    }
}

impl fmt::Display for ScalingCurve {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(p: u32, throughput: f64) -> ScalePoint {
        ScalePoint {
            p,
            ops: 1000 * u64::from(p),
            throughput,
            p50_us: 2.0 + f64::from(p),
            p99_us: 5.0 + f64::from(p),
            cv: 0.05,
            quality: "good".into(),
            efficiency: None,
            generators: (0..p)
                .map(|index| GeneratorSample {
                    index,
                    throughput: throughput / f64::from(p),
                    cv: 0.04,
                    quality: "good".into(),
                })
                .collect(),
            error: None,
        }
    }

    fn curve() -> ScalingCurve {
        let mut c = ScalingCurve {
            bench: "bw_mem".into(),
            unit: "MB/s".into(),
            points: vec![point(1, 1000.0), point(2, 1600.0), point(4, 2000.0)],
        };
        c.compute_efficiency();
        c
    }

    #[test]
    fn efficiency_is_relative_to_p1() {
        let c = curve();
        assert!((c.points[0].efficiency.unwrap() - 1.0).abs() < 1e-12);
        assert!((c.points[1].efficiency.unwrap() - 0.8).abs() < 1e-12);
        assert!((c.points[2].efficiency.unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn efficiency_unknown_without_a_baseline() {
        let mut c = curve();
        c.points[0].error = Some("generator panicked".into());
        c.compute_efficiency();
        assert!(c.baseline().is_none());
        assert!(c.points.iter().all(|pt| pt.efficiency.is_none()));
    }

    #[test]
    fn efficiency_unknown_on_zero_throughput_baseline() {
        // A P=1 point that "succeeded" with zero throughput must not put
        // inf/NaN into later points' JSON.
        let mut c = curve();
        c.points[0].throughput = 0.0;
        c.compute_efficiency();
        assert!(
            c.points.iter().all(|pt| pt.efficiency.is_none()),
            "zero baseline must yield unknown efficiency, got {:?}",
            c.points.iter().map(|p| p.efficiency).collect::<Vec<_>>()
        );
        let json = c.to_value();
        let back = ScalingCurve::from_value(&json).expect("roundtrip");
        assert_eq!(back, c, "unknown efficiency survives serialization");
    }

    #[test]
    fn failed_points_are_excluded_from_ok_points() {
        let mut c = curve();
        c.points[1].error = Some("boom".into());
        let ps: Vec<u32> = c.ok_points().map(|pt| pt.p).collect();
        assert_eq!(ps, vec![1, 4]);
        assert!(!c.points[1].is_ok());
    }

    #[test]
    fn curve_roundtrips_through_value() {
        let c = curve();
        let back = ScalingCurve::from_value(&c.to_value()).expect("roundtrip");
        assert_eq!(back, c);
    }

    #[test]
    fn render_marks_failed_points() {
        let mut c = curve();
        c.points[2].error = Some("generator 3 panicked".into());
        let text = c.render();
        assert!(text.contains("bw_mem under load"), "{text}");
        assert!(text.contains("MB/s"), "{text}");
        assert!(text.contains("failed"), "{text}");
        assert!(text.contains("generator 3 panicked"), "{text}");
        assert!(text.contains("good"), "{text}");
    }
}
