//! Per-stream service accounting.
//!
//! The figures the paper plots per stream — bandwidth over time, queuing
//! delay per frame, deadline misses, violations, delay jitter — all derive
//! from one account per stream. The scheduler updates it inline (cheap
//! field bumps at every enqueue, dispatch, drop and violation) and the
//! experiment harnesses read it out.
//!
//! The type is [`nistream_trace::StreamAccount`], the one per-stream
//! account in the workspace: the host-side trace fold keeps the same type
//! per stream, updated by the same code, so a scheduler's account and the
//! fold of its trace agree field for field (less the enqueue, violation
//! and queuing-delay fields the trace does not carry).

pub use nistream_trace::StreamAccount as StreamStats;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let mut s = StreamStats::default();
        for _ in 0..4 {
            s.note_enqueue();
        }
        s.note_sent(10, 1000, 10_000, true);
        s.note_sent(20, 1000, 30_000, true);
        assert_eq!(s.queued(), 2);
        s.note_sent(30, 500, 50_000, false);
        s.note_dropped();
        assert_eq!(s.sent(), 3);
        assert_eq!(s.bytes_sent, 2500);
        assert_eq!(s.mean_queue_delay(), 30_000);
        assert_eq!(s.queue_delay_max, 50_000);
        assert_eq!(s.queued(), 0);
    }

    #[test]
    fn jitter_tracks_gap_variation() {
        let mut s = StreamStats::default();
        // Departures at 0, 10, 20, 30 ms: perfectly paced, zero jitter.
        for t in [0, 10, 20, 30u64] {
            s.note_dispatch(t * 1_000_000, 0, true);
        }
        assert_eq!(s.mean_jitter(), 0);
        assert_eq!(s.jitter_samples, 2);
        // A 25 ms gap after 10 ms gaps: |25−10| = 15 ms step.
        assert_eq!(s.note_dispatch(55 * 1_000_000, 0, true), Some(15 * 1_000_000));
        assert_eq!(s.mean_jitter(), 5 * 1_000_000, "(0 + 0 + 15)/3 ms");
    }

    #[test]
    fn jitter_needs_three_departures() {
        let mut s = StreamStats::default();
        assert_eq!(s.note_dispatch(0, 0, true), None);
        assert_eq!(s.note_dispatch(7, 0, true), None, "one gap, no variation yet");
        assert_eq!(s.mean_jitter(), 0);
    }

    /// Frame conservation: a second departure of the one queued frame is a
    /// double dispatch, and debug builds refuse to absorb it.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "double dispatch")]
    fn sending_from_an_empty_backlog_panics() {
        let mut s = StreamStats::default();
        s.note_enqueue();
        s.note_sent(0, 1000, 0, true);
        s.note_sent(1, 1000, 0, true);
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
        assert_eq!(s.mean_jitter(), 0);
        assert_eq!(s.sent(), 0);
        assert_eq!(s.queued(), 0);
    }
}
