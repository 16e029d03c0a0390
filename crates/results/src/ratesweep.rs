//! Throughput–latency curves from open-loop rate sweeps.
//!
//! A [`crate::ScalingCurve`] answers "what happens with P generators",
//! each generator closed-loop. These types answer the other axis: one
//! generator offered a *scheduled arrival rate*, swept upward until the
//! service saturates. In open-loop mode every arrival's latency is
//! measured from its intended start time — queueing included — so the
//! curve shows what a request actually experiences at each offered rate,
//! not what a self-throttling client admits to. One [`RateSweep`] holds
//! one benchmark's sweep in one mode (`open` or `closed`); comparing the
//! two at the same offered rates makes the coordinated-omission gap a
//! number the differ can gate on.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Achieved rate below this fraction of offered is a throughput plateau.
const KNEE_ACHIEVED_FRACTION: f64 = 0.9;

/// p99 beyond this multiple of the first point's p99 is a latency blowup.
const KNEE_P99_BLOWUP: f64 = 5.0;

/// One offered-rate point of a sweep.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RatePoint {
    /// Scheduled arrival rate, operations per second.
    pub offered_per_s: f64,
    /// Completed-operation rate over the point's span, operations per
    /// second.
    pub achieved_per_s: f64,
    /// Operations completed.
    pub ops: u64,
    /// Arrivals whose service started after their intended time (the
    /// backlog the closed loop never sees; always 0 in closed mode).
    pub late: u64,
    /// Worst start lag behind the schedule, µs.
    pub max_lag_us: f64,
    /// Median latency, µs — from the intended arrival time in open mode,
    /// from service start in closed mode.
    pub p50_us: f64,
    /// 99th-percentile latency, µs (same origin as `p50_us`).
    pub p99_us: f64,
    /// Coefficient of variation of the per-arrival latencies.
    pub cv: f64,
    /// Quality grade of the latency samples ("good", "noisy", "suspect").
    pub quality: String,
    /// Why the point failed (generator error or panic); `None` for
    /// measured points. A failed point carries zeros elsewhere.
    pub error: Option<String>,
}

impl RatePoint {
    /// Did this point produce usable numbers?
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }

    /// Is this point past the knee relative to `first` (the lowest-rate
    /// ok point): achieved throughput fell off the offered rate, or p99
    /// blew up?
    #[must_use]
    pub fn saturated(&self, first: &RatePoint) -> bool {
        self.achieved_per_s < self.offered_per_s * KNEE_ACHIEVED_FRACTION
            || (first.p99_us > 0.0 && self.p99_us > first.p99_us * KNEE_P99_BLOWUP)
    }
}

/// One benchmark's throughput–latency sweep in one pacing mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RateSweep {
    /// Scalable-benchmark name (`lat_pipe`, `bw_tcp`, ...).
    pub bench: String,
    /// Pacing mode: `open` (latency from intended arrival) or `closed`
    /// (latency from service start — the omission bug, kept explicit for
    /// comparison).
    pub mode: String,
    /// Arrival process (`uniform` or `poisson`).
    pub process: String,
    /// Points in ascending offered-rate order (failed points included).
    pub points: Vec<RatePoint>,
    /// Index of the first saturated point, when the sweep found one.
    pub knee: Option<u32>,
}

impl RateSweep {
    /// Points that produced usable numbers.
    pub fn ok_points(&self) -> impl Iterator<Item = &RatePoint> {
        self.points.iter().filter(|pt| pt.is_ok())
    }

    /// First saturated ok point relative to the lowest-rate ok point
    /// (throughput plateau or p99 blowup), as an index into `points`.
    #[must_use]
    pub fn find_knee(&self) -> Option<usize> {
        let first = self.ok_points().next()?;
        self.points
            .iter()
            .position(|pt| pt.is_ok() && pt.saturated(first))
    }

    /// Recomputes and stores [`RateSweep::find_knee`].
    pub fn mark_knee(&mut self) {
        self.knee = self.find_knee().map(|i| i as u32);
    }

    /// Renders the sweep as a paper-style fixed-width table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "=== {} {}-loop sweep ({} arrivals, ops/s) ===\n",
            self.bench, self.mode, self.process
        ));
        out.push_str(&format!(
            "{:>12} {:>12} {:>10} {:>10} {:>8} {:>12} {:>8}  {}\n",
            "offered", "achieved", "p50(us)", "p99(us)", "late", "max_lag(us)", "quality", "detail"
        ));
        for (i, pt) in self.points.iter().enumerate() {
            let marker = if self.knee == Some(i as u32) {
                " <- knee"
            } else {
                ""
            };
            match &pt.error {
                Some(reason) => out.push_str(&format!(
                    "{:>12.0} {:>12} {:>10} {:>10} {:>8} {:>12} {:>8}  {}\n",
                    pt.offered_per_s, "-", "-", "-", "-", "-", "failed", reason
                )),
                None => out.push_str(&format!(
                    "{:>12.0} {:>12.0} {:>10.2} {:>10.2} {:>8} {:>12.2} {:>8}  {}\n",
                    pt.offered_per_s,
                    pt.achieved_per_s,
                    pt.p50_us,
                    pt.p99_us,
                    pt.late,
                    pt.max_lag_us,
                    pt.quality,
                    marker.trim_start()
                )),
            }
        }
        out
    }
}

impl fmt::Display for RateSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Renders an open and a closed sweep of the same benchmark side by side,
/// pairing points by position (sweeps share their offered-rate ladder):
/// the omission gap — open p99 over closed p99 — as a column.
#[must_use]
pub fn render_side_by_side(open: &RateSweep, closed: &RateSweep) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "=== {} open vs closed ({} arrivals, ops/s) ===\n",
        open.bench, open.process
    ));
    out.push_str(&format!(
        "{:>12} {:>13} {:>13} {:>13} {:>13} {:>9}\n",
        "offered", "closed tput", "closed p99", "open tput", "open p99", "gap"
    ));
    for (i, o) in open.points.iter().enumerate() {
        let c = closed.points.get(i);
        let fmt_tput = |pt: Option<&RatePoint>| match pt {
            Some(p) if p.is_ok() => format!("{:.0}", p.achieved_per_s),
            _ => "-".to_string(),
        };
        let fmt_p99 = |pt: Option<&RatePoint>| match pt {
            Some(p) if p.is_ok() => format!("{:.2}", p.p99_us),
            _ => "-".to_string(),
        };
        let gap = match (o.is_ok().then_some(o), c.filter(|p| p.is_ok())) {
            (Some(o), Some(c)) if c.p99_us > 0.0 => format!("{:.1}x", o.p99_us / c.p99_us),
            _ => "-".to_string(),
        };
        let marker = if open.knee == Some(i as u32) {
            "  <- knee"
        } else {
            ""
        };
        out.push_str(&format!(
            "{:>12.0} {:>13} {:>13} {:>13} {:>13} {:>9}{}\n",
            o.offered_per_s,
            fmt_tput(c),
            fmt_p99(c),
            fmt_tput(Some(o)),
            fmt_p99(Some(o)),
            gap,
            marker
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(offered: f64, achieved: f64, p99_us: f64) -> RatePoint {
        RatePoint {
            offered_per_s: offered,
            achieved_per_s: achieved,
            ops: 256,
            late: 0,
            max_lag_us: 0.0,
            p50_us: p99_us * 0.6,
            p99_us,
            cv: 0.08,
            quality: "good".into(),
            error: None,
        }
    }

    fn sweep() -> RateSweep {
        let mut s = RateSweep {
            bench: "lat_pipe".into(),
            mode: "open".into(),
            process: "uniform".into(),
            points: vec![
                point(1000.0, 1000.0, 20.0),
                point(2000.0, 1990.0, 24.0),
                point(4000.0, 3100.0, 400.0),
            ],
            knee: None,
        };
        s.mark_knee();
        s
    }

    #[test]
    fn knee_detects_throughput_plateau_and_p99_blowup() {
        let s = sweep();
        // Third point: achieved 3100 < 0.9 * 4000 AND p99 20x the first.
        assert_eq!(s.knee, Some(2));

        // p99 blowup alone trips it too, even at full achieved rate.
        let mut t = sweep();
        t.points[2] = point(4000.0, 4000.0, 150.0);
        t.mark_knee();
        assert_eq!(t.knee, Some(2), "5x p99 is a knee");

        // A healthy sweep has none.
        let mut u = sweep();
        u.points[2] = point(4000.0, 3990.0, 30.0);
        u.mark_knee();
        assert_eq!(u.knee, None);
    }

    #[test]
    fn knee_skips_failed_points_and_needs_an_ok_reference() {
        let mut s = sweep();
        s.points[0].error = Some("setup failed".into());
        s.mark_knee();
        // Reference becomes the second point; third still saturates.
        assert_eq!(s.knee, Some(2));
        for pt in &mut s.points {
            pt.error = Some("boom".into());
        }
        s.mark_knee();
        assert_eq!(s.knee, None, "all-failed sweep has no knee");
    }

    #[test]
    fn sweep_roundtrips_through_json() {
        let s = sweep();
        let back = serde_json::from_str::<RateSweep>(&serde_json::to_string(&s).unwrap())
            .expect("roundtrip");
        assert_eq!(back, s);
    }

    #[test]
    fn render_marks_knee_and_failed_points() {
        let mut s = sweep();
        s.points[1].error = Some("generator 0: pipe closed".into());
        let text = s.render();
        assert!(text.contains("lat_pipe open-loop sweep"), "{text}");
        assert!(text.contains("failed"), "{text}");
        assert!(text.contains("pipe closed"), "{text}");
        assert!(text.contains("knee"), "{text}");
    }

    #[test]
    fn side_by_side_shows_the_omission_gap() {
        let open = sweep();
        let mut closed = sweep();
        closed.mode = "closed".into();
        for pt in &mut closed.points {
            pt.p99_us = 20.0;
        }
        let text = render_side_by_side(&open, &closed);
        assert!(text.contains("open vs closed"), "{text}");
        // 400 / 20 = 20x at the knee point.
        assert!(text.contains("20.0x"), "{text}");
        assert!(text.contains("<- knee"), "{text}");
    }
}
