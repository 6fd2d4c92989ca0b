//! Measurement collectors used to regenerate the paper's tables and figures.
//!
//! * [`Trace`] — a `(time, value)` series (Figures 6–10 are all traces:
//!   CPU utilization vs time, bandwidth vs time, queuing delay vs frame#).
//! * [`UtilizationSampler`] — converts busy/idle intervals into windowed
//!   percent-utilization samples, the way Solaris Perfmeter presented CPU
//!   load in Figure 6.
//! * [`Summary`] — streaming mean/min/max/stddev (Welford).

use crate::time::{SimDuration, SimTime};
use std::fmt::Write as _;

/// A time series of `f64` samples.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    points: Vec<(SimTime, f64)>,
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Append a sample. Samples are expected in nondecreasing time order
    /// (the engine fires events in order, so this holds naturally).
    pub fn push(&mut self, t: SimTime, v: f64) {
        debug_assert!(self.points.last().is_none_or(|&(lt, _)| lt <= t));
        self.points.push((t, v));
    }

    /// All points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Last value, if any.
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// Mean of values between `from` and `to` (unweighted by spacing —
    /// matches a periodic sampler).
    pub fn mean_between(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for &(t, v) in &self.points {
            if t >= from && t <= to {
                sum += v;
                n += 1;
            }
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// Minimum and maximum values over the whole trace.
    pub fn min_max(&self) -> Option<(f64, f64)> {
        self.points.iter().fold(None, |acc, &(_, v)| match acc {
            None => Some((v, v)),
            Some((lo, hi)) => Some((lo.min(v), hi.max(v))),
        })
    }

    /// The value toward which the series settles: mean of the final
    /// `tail_fraction` of samples (the paper reports "settling bandwidth").
    pub fn settling_value(&self, tail_fraction: f64) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        let start = ((self.points.len() as f64) * (1.0 - tail_fraction)).floor() as usize;
        let tail = &self.points[start.min(self.points.len() - 1)..];
        Some(tail.iter().map(|&(_, v)| v).sum::<f64>() / tail.len() as f64)
    }

    /// Render as CSV with the given value-column header.
    pub fn to_csv(&self, header: &str) -> String {
        let mut out = String::with_capacity(self.points.len() * 24 + 16);
        let _ = writeln!(out, "time_ms,{header}");
        for &(t, v) in &self.points {
            let _ = writeln!(out, "{},{v:.3}", t.as_millis());
        }
        out
    }

    /// Downsample to at most `n` points, keeping endpoints (plotting aid).
    pub fn thin(&self, n: usize) -> Trace {
        if n == 0 || self.points.len() <= n {
            return self.clone();
        }
        let stride = self.points.len().div_ceil(n);
        let mut points: Vec<(SimTime, f64)> = self.points.iter().copied().step_by(stride).collect();
        if points.last() != self.points.last() {
            points.push(*self.points.last().expect("non-empty"));
        }
        Trace { points }
    }
}

/// Converts busy intervals into a windowed percent-utilization series.
pub struct UtilizationSampler {
    window: SimDuration,
    window_start: SimTime,
    busy_in_window: SimDuration,
    busy_since: Option<SimTime>,
    trace: Trace,
}

impl UtilizationSampler {
    /// Sampler with the given averaging window (Perfmeter-style).
    pub fn new(window: SimDuration) -> UtilizationSampler {
        UtilizationSampler {
            window,
            window_start: SimTime::ZERO,
            busy_in_window: SimDuration::ZERO,
            busy_since: None,
            trace: Trace::new(),
        }
    }

    /// Mark the resource busy from `t` (idempotent).
    pub fn busy(&mut self, t: SimTime) {
        self.roll(t);
        if self.busy_since.is_none() {
            self.busy_since = Some(t);
        }
    }

    /// Mark the resource idle from `t` (idempotent).
    pub fn idle(&mut self, t: SimTime) {
        self.roll(t);
        if let Some(since) = self.busy_since.take() {
            self.busy_in_window += t.since(since);
        }
    }

    /// Advance window bookkeeping to `t`, emitting one sample per complete
    /// window.
    fn roll(&mut self, t: SimTime) {
        while t.since(self.window_start) >= self.window {
            let window_end = self.window_start + self.window;
            // Busy time inside this window from any open busy interval.
            let mut busy = self.busy_in_window;
            if let Some(since) = self.busy_since {
                busy += window_end.since(since.max(self.window_start));
                // The open interval has now been credited through window_end;
                // restart it there so later windows don't double-count.
                self.busy_since = Some(window_end);
            }
            let pct = 100.0 * busy.as_nanos() as f64 / self.window.as_nanos() as f64;
            self.trace.push(window_end, pct.min(100.0));
            self.window_start = window_end;
            self.busy_in_window = SimDuration::ZERO;
        }
    }

    /// Close out at `t` and return the utilization trace.
    pub fn finish(mut self, t: SimTime) -> Trace {
        self.idle(t);
        self.trace
    }

    /// Peek at samples emitted so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

/// Streaming summary statistics (Welford's online algorithm).
#[derive(Clone, Debug, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Empty summary.
    pub fn new() -> Summary {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add a sample.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Sample count.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / self.n as f64).sqrt()
        }
    }

    /// Minimum (0 when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum (0 when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    #[test]
    fn trace_basics() {
        let mut tr = Trace::new();
        tr.push(t(0), 1.0);
        tr.push(t(10), 3.0);
        tr.push(t(20), 5.0);
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.last(), Some(5.0));
        assert_eq!(tr.mean_between(t(0), t(10)), Some(2.0));
        assert_eq!(tr.min_max(), Some((1.0, 5.0)));
    }

    #[test]
    fn settling_value_uses_tail() {
        let mut tr = Trace::new();
        for i in 0..100u64 {
            let v = if i < 50 { 0.0 } else { 250_000.0 };
            tr.push(t(i), v);
        }
        let settle = tr.settling_value(0.25).unwrap();
        assert_eq!(settle, 250_000.0);
    }

    #[test]
    fn csv_render() {
        let mut tr = Trace::new();
        tr.push(t(1), 2.5);
        let csv = tr.to_csv("bw_bps");
        assert!(csv.starts_with("time_ms,bw_bps\n"));
        assert!(csv.contains("1,2.500"));
    }

    #[test]
    fn thin_preserves_endpoints() {
        let mut tr = Trace::new();
        for i in 0..1000u64 {
            tr.push(t(i), i as f64);
        }
        let thinned = tr.thin(10);
        assert!(thinned.len() <= 12);
        assert_eq!(thinned.points().first(), Some(&(t(0), 0.0)));
        assert_eq!(thinned.points().last(), Some(&(t(999), 999.0)));
    }

    #[test]
    fn utilization_half_busy() {
        let mut u = UtilizationSampler::new(SimDuration::from_millis(10));
        // Busy 5 ms of every 10 ms window.
        for w in 0..4u64 {
            u.busy(t(w * 10));
            u.idle(t(w * 10 + 5));
        }
        let trace = u.finish(t(40));
        assert_eq!(trace.len(), 4);
        for &(_, pct) in trace.points() {
            assert!((pct - 50.0).abs() < 1e-9, "pct {pct}");
        }
    }

    #[test]
    fn utilization_spanning_windows() {
        let mut u = UtilizationSampler::new(SimDuration::from_millis(10));
        u.busy(t(5));
        u.idle(t(25)); // busy 5–25 ms: windows 50%, 100%, then idle
        let trace = u.finish(t(30));
        let vals: Vec<f64> = trace.points().iter().map(|&(_, v)| v).collect();
        assert_eq!(vals.len(), 3);
        assert!((vals[0] - 50.0).abs() < 1e-9);
        assert!((vals[1] - 100.0).abs() < 1e-9);
        assert!((vals[2] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn summary_welford() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.add(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }
}
