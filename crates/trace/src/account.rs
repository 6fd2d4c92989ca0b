//! Per-stream service accounting: the one implementation.
//!
//! The scheduler (`dwcs::DwcsScheduler`, which re-exports the type as
//! `dwcs::metrics::StreamStats`) updates a [`StreamAccount`] inline at
//! every enqueue, dispatch, drop and violation; the host fold
//! ([`crate::Aggregate`]) rebuilds one per stream from the drained
//! `Dispatch`/`Drop`/`Admit` events with the same code. Both see the same
//! instant for a dispatch, so the two agree on every field the trace
//! carries. It carries no enqueues, violations or queuing delays: those
//! fields stay 0 in a folded account. NI-resident code (the NI lint
//! families cover this file): integer-only, allocation- and panic-free.

/// Counters and moments for one stream.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StreamAccount {
    /// Frames accepted into the stream queue.
    pub enqueued: u64,
    /// Frames dispatched at or before their deadline.
    pub sent_on_time: u64,
    /// Frames dispatched after their deadline (send-late policy).
    pub sent_late: u64,
    /// Frames dropped (droppable policy, deadline passed).
    pub dropped: u64,
    /// Window-constraint violations recorded.
    pub violations: u64,
    /// Payload bytes actually transmitted.
    pub bytes_sent: u64,
    /// Sum of queuing delays (enqueue → dispatch) over sent frames, ns.
    pub queue_delay_sum: u128,
    /// Worst queuing delay seen, ns.
    pub queue_delay_max: u64,
    /// Previous dispatch instant (ns), for inter-departure jitter.
    pub last_dispatch: Option<u64>,
    /// Previous inter-departure gap (ns).
    pub last_gap: Option<u64>,
    /// Sum of |gap − previous gap| over consecutive departures (ns): the
    /// delay jitter of the paper's "more uniform delay-jitter" claim.
    pub jitter_sum: u128,
    /// Number of jitter samples (departures − 2 per gap chain).
    pub jitter_samples: u64,
}

impl StreamAccount {
    /// Total frames that left the queue by transmission.
    pub fn sent(&self) -> u64 {
        self.sent_on_time + self.sent_late
    }

    /// Frames still queued, `enqueued − sent − dropped` (0 when folded).
    pub fn queued(&self) -> u64 {
        self.enqueued.saturating_sub(self.sent() + self.dropped)
    }

    /// Mean queuing delay in nanoseconds (0 if nothing sent).
    pub fn mean_queue_delay(&self) -> u64 {
        let n = self.sent();
        if n == 0 {
            0
        } else {
            (self.queue_delay_sum / u128::from(n)) as u64
        }
    }

    /// Mean jitter step in nanoseconds (0 for perfectly paced streams).
    pub fn mean_jitter(&self) -> u64 {
        if self.jitter_samples == 0 {
            0
        } else {
            (self.jitter_sum / u128::from(self.jitter_samples)) as u64
        }
    }

    /// One frame accepted into the stream queue.
    pub fn note_enqueue(&mut self) {
        self.enqueued += 1;
    }

    /// One frame dispatched at `at`: counts it, then extends the gap
    /// chain. Returns the jitter step |gap − previous gap| once the chain
    /// holds two gaps, so a fold can also record it chassis-wide.
    pub fn note_dispatch(&mut self, at: u64, len: u32, on_time: bool) -> Option<u64> {
        if on_time {
            self.sent_on_time += 1;
        } else {
            self.sent_late += 1;
        }
        self.bytes_sent += u64::from(len);
        let mut step = None;
        if let Some(prev) = self.last_dispatch {
            let gap = at.saturating_sub(prev);
            if let Some(prev_gap) = self.last_gap {
                let s = gap.abs_diff(prev_gap);
                self.jitter_sum += u128::from(s);
                self.jitter_samples += 1;
                step = Some(s);
            }
            self.last_gap = Some(gap);
        }
        self.last_dispatch = Some(at);
        step
    }

    /// The scheduler's dispatch: [`StreamAccount::note_dispatch`] plus the
    /// queuing delay. Debug builds refuse a frame that was never queued.
    pub fn note_sent(&mut self, at: u64, len: u32, delay: u64, on_time: bool) {
        debug_assert!(self.queued() > 0, "frame sent from an empty backlog (double dispatch)");
        self.queue_delay_sum += u128::from(delay);
        self.queue_delay_max = self.queue_delay_max.max(delay);
        self.note_dispatch(at, len, on_time);
    }

    /// The scheduler's drop of a queued frame (debug builds check it was).
    pub fn note_dropped(&mut self) {
        debug_assert!(self.queued() > 0, "frame dropped from an empty backlog (double drop)");
        self.dropped += 1;
    }

    /// One window-constraint violation.
    pub fn note_violation(&mut self) {
        self.violations += 1;
    }

    /// Start a new gap chain (the id was admitted afresh); keep counts.
    pub fn restart_gaps(&mut self) {
        self.last_dispatch = None;
        self.last_gap = None;
    }

    /// Add `other`'s counts and moments; the gap chain stays this one's.
    pub fn absorb(&mut self, other: &StreamAccount) {
        self.enqueued += other.enqueued;
        self.sent_on_time += other.sent_on_time;
        self.sent_late += other.sent_late;
        self.dropped += other.dropped;
        self.violations += other.violations;
        self.bytes_sent += other.bytes_sent;
        self.queue_delay_sum += other.queue_delay_sum;
        self.queue_delay_max = self.queue_delay_max.max(other.queue_delay_max);
        self.jitter_sum += other.jitter_sum;
        self.jitter_samples += other.jitter_samples;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_adds_counts_and_keeps_the_gap_chain() {
        let mut a = StreamAccount::default();
        for t in [0, 10, 30] {
            a.note_dispatch(t, 100, true);
        }
        let mut b = StreamAccount::default();
        b.note_dispatch(5, 50, false);
        b.note_dispatch(6, 50, false);
        b.note_dispatch(17, 50, false);
        b.dropped = 2;
        a.absorb(&b);
        assert_eq!((a.sent_on_time, a.sent_late, a.dropped, a.bytes_sent), (3, 3, 2, 450));
        // |20 − 10| = 10 from a, |11 − 1| = 10 from b.
        assert_eq!((a.jitter_sum, a.jitter_samples), (20, 2));
        assert_eq!((a.last_dispatch, a.last_gap), (Some(30), Some(20)));
    }
}
