//! The open-loop generator: one thread sends request `i` at its intended
//! time `i / rate` on a fixed schedule. A request whose predecessor is
//! still in flight goes out late — never skipped, never re-paced — and
//! its latency is measured from the intended time. Each request's
//! process CPU time is recorded too.

use crate::cpu;
use crate::stats::Sample;
use crate::trace::Tracer;
use std::time::{Duration, Instant};

/// Sleeps shorter than this are spun instead, so sends land on schedule.
const SPIN_NS: u64 = 200_000;

/// Runs `n` requests at `rate` per second. `request(i, tracer)` performs
/// request `i` and reports success. Each request is recorded as a
/// `request` span from its intended time, with the generator's wait as a
/// `gen.wait` span before it. With `paired`, one call of the CPU reference
/// follows each request, outside its timing, and the sample records the
/// host slowdown that call saw.
pub fn run(
    rate: f64,
    n: usize,
    paired: bool,
    tracer: &mut Tracer,
    mut request: impl FnMut(usize, &mut Tracer) -> bool,
) -> Vec<Sample> {
    let interval_ns = 1e9 / rate;
    let start = Instant::now();
    let ns = |t: Instant| t.duration_since(start).as_nanos() as u64;
    (0..n)
        .map(|i| {
            let intended_ns = (i as f64 * interval_ns) as u64;
            let intended = start + Duration::from_nanos(intended_ns);
            let before = Instant::now();
            wait_until(intended);
            let sent = Instant::now();
            tracer.record("gen.wait", before, sent);
            let (ok, cpu_s) =
                cpu::timed(|| tracer.span_from("request", intended.min(sent), |t| request(i, t)));
            let done = Instant::now();
            let slowdown = paired.then(|| cpu::slowdown(1));
            Sample {
                intended_ns,
                sent_ns: ns(sent),
                done_ns: ns(done),
                ok,
                cpu_s,
                slowdown,
            }
        })
        .collect()
}

fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left.as_nanos() as u64 > SPIN_NS {
            std::thread::sleep(left - Duration::from_nanos(SPIN_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::judge;

    #[test]
    fn a_stalled_server_delays_every_request_queued_behind_it() {
        // 2 kHz schedule (0.5 ms apart); request 20 stalls for 30 ms. The
        // ~60 requests due during the stall are sent late, and their
        // latency from the intended time includes that wait even though
        // each one's own service took microseconds.
        let mut tracer = Tracer::new(false);
        let samples = run(2000.0, 200, false, &mut tracer, |i, _| {
            if i == 20 {
                std::thread::sleep(Duration::from_millis(30));
            }
            true
        });
        let first_late = &samples[21];
        assert!(first_late.lag_ms() > 25.0, "{first_late:?}");
        assert!(first_late.latency_ms() > 25.0);
        let queued = samples[21..]
            .iter()
            .filter(|s| s.latency_ms() > 5.0)
            .count();
        assert!(queued >= 40, "only {queued} requests saw the stall");
        // Service time alone would show a flat, tiny p99.
        let v = judge(2000.0, &samples, 10.0);
        assert!(v.p99_ms > 20.0 && !v.meets, "{v:?}");
    }

    #[test]
    fn an_idle_server_keeps_the_schedule() {
        let mut tracer = Tracer::new(true);
        let samples = run(1000.0, 50, false, &mut tracer, |_, _| true);
        let v = judge(1000.0, &samples, 10.0);
        assert!(v.meets, "{v:?}");
        assert!(samples.last().unwrap().sent_ns >= 49_000_000);
        let requests = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "request")
            .count();
        assert_eq!(requests, 50);
    }
}
