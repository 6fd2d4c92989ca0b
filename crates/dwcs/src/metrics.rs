//! Per-stream service accounting.
//!
//! The figures the paper plots per stream — bandwidth over time, queuing
//! delay per frame, deadline misses, violations — all derive from these
//! counters. The struct is updated inline by the scheduler (cheap field
//! bumps) and read out by the experiment harnesses.

use crate::types::Time;
use fixedpt::Q16;

/// Counters and moments for one stream.
#[derive(Clone, Debug, Default)]
pub struct StreamStats {
    /// Frames accepted into the stream queue.
    pub enqueued: u64,
    /// Frames dispatched at or before their deadline.
    pub sent_on_time: u64,
    /// Frames dispatched after their deadline (SendLate policy).
    pub sent_late: u64,
    /// Frames dropped (Droppable policy, deadline passed).
    pub dropped: u64,
    /// Window-constraint violations recorded.
    pub violations: u64,
    /// Payload bytes actually transmitted.
    pub bytes_sent: u64,
    /// Sum of queuing delays (enqueue → dispatch decision) in ns, over all
    /// transmitted frames.
    pub queue_delay_sum: u128,
    /// Worst queuing delay seen (ns).
    pub queue_delay_max: Time,
    /// Frames currently waiting (enqueued − sent − dropped).
    pub backlog: u64,
    /// Previous dispatch instant (ns), for inter-departure jitter.
    pub last_dispatch: Option<Time>,
    /// Previous inter-departure gap (ns).
    pub last_gap: Option<Time>,
    /// Sum of |gap − previous gap| over consecutive departures (ns) — the
    /// RFC-style delay-jitter accumulator the paper's "more uniform
    /// delay-jitter variation" claim is about.
    pub jitter_sum: u128,
    /// Number of jitter samples (departures − 2).
    pub jitter_samples: u64,
    /// Worst single jitter step (ns).
    pub jitter_max: Time,
}

impl StreamStats {
    /// Total frames that left the queue by transmission.
    pub fn sent(&self) -> u64 {
        self.sent_on_time + self.sent_late
    }

    /// Frames that missed their deadline (late + dropped).
    pub fn missed(&self) -> u64 {
        self.sent_late + self.dropped
    }

    /// Mean queuing delay in nanoseconds (0 if nothing sent).
    pub fn mean_queue_delay(&self) -> Time {
        let n = self.sent();
        if n == 0 {
            0
        } else {
            (self.queue_delay_sum / u128::from(n)) as Time
        }
    }

    /// Fraction of departed frames that met their deadline, as Q16.16
    /// (1 when nothing has departed). Host-side reporting that wants a
    /// float goes through `Q16::to_f64`; the NI code itself stays integer.
    pub fn on_time_fraction(&self) -> Q16 {
        let done = self.sent() + self.dropped;
        if done == 0 {
            return Q16::ONE;
        }
        // `from_ratio` shifts the numerator left 16 bits; downscale both
        // counters first if a run has been long enough to get near that
        // edge (the ratio is what matters, not the absolute counts).
        let mut num = self.sent_on_time;
        let mut den = done;
        while den > (1u64 << 46) {
            num >>= 1;
            den >>= 1;
        }
        Q16::from_ratio(num as i64, den as i64)
    }

    /// Mean inter-departure jitter in nanoseconds: the average absolute
    /// change between consecutive departure gaps (0 for perfectly paced
    /// streams).
    pub fn mean_jitter(&self) -> Time {
        if self.jitter_samples == 0 {
            0
        } else {
            (self.jitter_sum / u128::from(self.jitter_samples)) as Time
        }
    }

    pub(crate) fn note_enqueue(&mut self) {
        self.enqueued += 1;
        self.backlog += 1;
    }

    pub(crate) fn note_sent(&mut self, bytes: u32, delay: Time, on_time: bool) {
        if on_time {
            self.sent_on_time += 1;
        } else {
            self.sent_late += 1;
        }
        self.bytes_sent += u64::from(bytes);
        self.queue_delay_sum += u128::from(delay);
        self.queue_delay_max = self.queue_delay_max.max(delay);
        debug_assert!(self.backlog > 0, "frame sent from an empty backlog (double dispatch)");
        self.backlog = self.backlog.saturating_sub(1);
    }

    /// Record a departure instant for jitter accounting (called by the
    /// scheduler with its decision/dispatch clock).
    pub(crate) fn note_departure_at(&mut self, now: Time) {
        if let Some(prev) = self.last_dispatch {
            let gap = now.saturating_sub(prev);
            if let Some(prev_gap) = self.last_gap {
                let step = gap.abs_diff(prev_gap);
                self.jitter_sum += u128::from(step);
                self.jitter_samples += 1;
                self.jitter_max = self.jitter_max.max(step);
            }
            self.last_gap = Some(gap);
        }
        self.last_dispatch = Some(now);
    }

    pub(crate) fn note_dropped(&mut self) {
        self.dropped += 1;
        debug_assert!(self.backlog > 0, "frame dropped from an empty backlog (double drop)");
        self.backlog = self.backlog.saturating_sub(1);
    }

    pub(crate) fn note_violation(&mut self) {
        self.violations += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let mut s = StreamStats::default();
        for _ in 0..4 {
            s.note_enqueue();
        }
        s.note_sent(1000, 10_000, true);
        s.note_sent(1000, 30_000, true);
        s.note_sent(500, 50_000, false);
        s.note_dropped();
        assert_eq!(s.sent(), 3);
        assert_eq!(s.missed(), 2);
        assert_eq!(s.bytes_sent, 2500);
        assert_eq!(s.mean_queue_delay(), 30_000);
        assert_eq!(s.queue_delay_max, 50_000);
        assert_eq!(s.backlog, 0);
        assert_eq!(s.on_time_fraction(), Q16::from_ratio(1, 2));
    }

    #[test]
    fn jitter_tracks_gap_variation() {
        let mut s = StreamStats::default();
        // Departures at 0, 10, 20, 30 ms: perfectly paced, zero jitter.
        for t in [0, 10, 20, 30u64] {
            s.note_departure_at(t * 1_000_000);
        }
        assert_eq!(s.mean_jitter(), 0);
        assert_eq!(s.jitter_samples, 2);
        // A 25 ms gap after 10 ms gaps: |25−10| = 15 ms step.
        s.note_departure_at(55 * 1_000_000);
        assert_eq!(s.jitter_max, 15 * 1_000_000);
        assert_eq!(s.mean_jitter(), 5 * 1_000_000, "(0 + 0 + 15)/3 ms");
    }

    #[test]
    fn jitter_needs_three_departures() {
        let mut s = StreamStats::default();
        s.note_departure_at(0);
        assert_eq!(s.mean_jitter(), 0);
        s.note_departure_at(7);
        assert_eq!(s.mean_jitter(), 0, "one gap, no variation yet");
    }

    /// Frame conservation: a second departure of the one queued frame is a
    /// double dispatch, and debug builds refuse to absorb it.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "double dispatch")]
    fn sending_from_an_empty_backlog_panics() {
        let mut s = StreamStats::default();
        s.note_enqueue();
        s.note_sent(1000, 0, true);
        s.note_sent(1000, 0, true);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "double drop")]
    fn dropping_from_an_empty_backlog_panics() {
        let mut s = StreamStats::default();
        s.note_enqueue();
        s.note_dropped();
        s.note_dropped();
    }

    #[test]
    fn empty_stream_is_benign() {
        let s = StreamStats::default();
        assert_eq!(s.mean_queue_delay(), 0);
        assert_eq!(s.on_time_fraction(), Q16::ONE);
        assert_eq!(s.sent(), 0);
    }
}
