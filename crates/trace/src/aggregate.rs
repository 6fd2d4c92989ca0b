//! Host-side aggregation: fold drained events into per-stream accounts,
//! counters and histograms.
//!
//! Each stream's entry is a [`StreamAccount`], the type the scheduler
//! keeps per stream, updated by the same `note_dispatch`. Everything
//! here is integer arithmetic so that summaries — like the raw event
//! streams — serialize byte-deterministically.

use crate::account::StreamAccount;
use crate::event::TraceEvent;
use std::collections::BTreeMap;

/// A log₂ histogram over `u64` nanosecond values.
///
/// Bucket `i` holds values `v` with `⌊log₂ v⌋ = i - 1` (bucket 0 holds
/// exactly 0), i.e. bucket boundaries are powers of two — coarse, but
/// enough to separate microsecond decision latencies from millisecond
/// queueing tails, and integer-exact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        let idx = (64 - v.leading_zeros()) as usize;
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Add `other`'s samples: bucket by bucket, count, sum (saturating)
    /// and max — exactly the histogram that recording both sample sets
    /// into one would give.
    pub fn absorb(&mut self, other: &Histogram) {
        for (b, &o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Recorded sample count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Occupancy of bucket `i` (0 for out-of-range `i`).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets.get(i).copied().unwrap_or(0)
    }

    /// Upper bound of the bucket containing the `num/den`-quantile sample
    /// (e.g. `percentile_upper(99, 100)` for p99). Returns 0 on an empty
    /// histogram. The bound is conservative: the true quantile lies at or
    /// below it, within one power of two — integer-exact and stable, which
    /// is what an SLO gate needs (a bucketed p99 cannot flap by one sample
    /// landing either side of an arbitrary cut).
    pub fn percentile_upper(&self, num: u64, den: u64) -> u64 {
        if self.count == 0 || den == 0 {
            return 0;
        }
        // Rank of the quantile sample, 1-based, ceiling: rank r means "r
        // samples lie at or below the answer".
        let rank = (u128::from(self.count) * u128::from(num))
            .div_ceil(u128::from(den))
            .clamp(1, u128::from(self.count)) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return match i {
                    0 => 0,
                    64 => u64::MAX,
                    _ => (1u64 << i) - 1,
                };
            }
        }
        self.max
    }

    /// `(lower_bound, count)` for every non-empty bucket, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << (i - 1) }, c))
            .collect()
    }
}

/// The folded view of one drained event stream.
#[derive(Clone, Debug, Default)]
pub struct Aggregate {
    /// Streams admitted.
    pub admits: u64,
    /// Stream opens refused.
    pub rejects: u64,
    /// Scheduling decisions observed.
    pub decisions: u64,
    /// Decisions that selected no frame.
    pub idle_decisions: u64,
    /// Total representation compares across decisions.
    pub compares: u64,
    /// Total representation touches across decisions.
    pub touches: u64,
    /// Largest post-decision backlog observed.
    pub max_backlog: u64,
    /// Lateness past deadline per dispatch (0 when on time), ns.
    pub latency: Histogram,
    /// Absolute change in per-stream inter-dispatch gap, ns.
    pub jitter: Histogram,
    streams: BTreeMap<u32, StreamAccount>,
}

impl Aggregate {
    /// A fresh, empty aggregate.
    pub fn new() -> Aggregate {
        Aggregate::default()
    }

    /// Fold a slice of events (typically one ring drain).
    pub fn fold_all(&mut self, events: &[TraceEvent]) {
        for ev in events {
            self.fold(ev);
        }
    }

    /// Fold one event.
    pub fn fold(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Admit { stream, .. } => {
                self.admits += 1;
                // A reused stream id starts a new session: its first gap
                // is not measured from the previous session's last dispatch.
                if let Some(s) = self.streams.get_mut(&stream) {
                    s.restart_gaps();
                }
            }
            TraceEvent::Reject { .. } => self.rejects += 1,
            TraceEvent::Decision {
                stream,
                backlog,
                compares,
                touches,
                ..
            } => {
                self.decisions += 1;
                if stream.is_none() {
                    self.idle_decisions += 1;
                }
                self.compares += compares;
                self.touches += touches;
                self.max_backlog = self.max_backlog.max(backlog);
            }
            TraceEvent::Dispatch {
                at,
                stream,
                len,
                deadline,
                on_time,
                ..
            } => {
                self.latency.record(at.saturating_sub(deadline));
                if let Some(step) = self.streams.entry(stream).or_default().note_dispatch(at, len, on_time) {
                    self.jitter.record(step);
                }
            }
            TraceEvent::Drop { stream, .. } => {
                self.streams.entry(stream).or_default().dropped += 1;
            }
            TraceEvent::QueueDepth { depth, .. } => {
                self.max_backlog = self.max_backlog.max(depth);
            }
        }
    }

    /// Add another aggregate's counts into this one: counters add,
    /// `max_backlog` takes the larger, histograms merge, and per-stream
    /// accounts of the same id [absorb](StreamAccount::absorb) each other.
    /// Used where stream ids are disjoint or their sums are what is wanted
    /// (a chassis total over per-card aggregates); folding both event
    /// streams into one aggregate instead would chain one card's gaps onto
    /// another's.
    pub fn absorb(&mut self, other: &Aggregate) {
        self.admits += other.admits;
        self.rejects += other.rejects;
        self.decisions += other.decisions;
        self.idle_decisions += other.idle_decisions;
        self.compares += other.compares;
        self.touches += other.touches;
        self.max_backlog = self.max_backlog.max(other.max_backlog);
        self.latency.absorb(&other.latency);
        self.jitter.absorb(&other.jitter);
        for (&sid, acct) in &other.streams {
            self.streams.entry(sid).or_default().absorb(acct);
        }
    }

    /// Per-stream accounts, ascending by stream id.
    pub fn streams(&self) -> impl Iterator<Item = (u32, &StreamAccount)> {
        self.streams.iter().map(|(&sid, s)| (sid, s))
    }

    /// The account of one stream, if it appeared in the trace.
    pub fn stream(&self, sid: u32) -> Option<&StreamAccount> {
        self.streams.get(&sid)
    }

    /// Total frames dispatched across streams.
    pub fn total_dispatches(&self) -> u64 {
        self.streams.values().map(StreamAccount::sent).sum()
    }

    /// Total frames dropped across streams.
    pub fn total_drops(&self) -> u64 {
        self.streams.values().map(|s| s.dropped).sum()
    }

    /// Total dispatches past their deadline across streams.
    pub fn total_late(&self) -> u64 {
        self.streams.values().map(|s| s.sent_late).sum()
    }

    /// Total dispatches that made their deadline across streams.
    pub fn total_on_time(&self) -> u64 {
        self.streams.values().map(|s| s.sent_on_time).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1024] {
            h.record(v);
        }
        assert_eq!(h.bucket(0), 1, "zero bucket");
        assert_eq!(h.bucket(1), 1, "v=1");
        assert_eq!(h.bucket(2), 2, "v in [2,4)");
        assert_eq!(h.bucket(3), 1, "v in [4,8)");
        assert_eq!(h.bucket(11), 1, "v in [1024,2048)");
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), 1024);
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (1, 1), (2, 2), (4, 1), (1024, 1)]);
    }

    #[test]
    fn percentile_upper_is_a_conservative_bucket_bound() {
        let mut h = Histogram::new();
        assert_eq!(h.percentile_upper(99, 100), 0, "empty histogram");
        // 99 zeros and one large value: p50 is the zero bucket, p99 still
        // the zero bucket (rank 99 of 100), p100 the big one.
        for _ in 0..99 {
            h.record(0);
        }
        h.record(5_000);
        assert_eq!(h.percentile_upper(50, 100), 0);
        assert_eq!(h.percentile_upper(99, 100), 0);
        // 5 000 lands in bucket 13 ([4096, 8191]).
        assert_eq!(h.percentile_upper(100, 100), 8_191);
        // Degenerate quantiles.
        assert_eq!(h.percentile_upper(0, 100), 0, "rank clamps to 1");
        assert_eq!(h.percentile_upper(1, 0), 0, "zero denominator");
        // A single sample: every quantile is its bucket bound.
        let mut one = Histogram::new();
        one.record(1);
        assert_eq!(one.percentile_upper(99, 100), 1);
    }

    #[test]
    fn fold_tracks_streams_latency_and_jitter() {
        let mut a = Aggregate::new();
        a.fold_all(&[
            TraceEvent::Admit {
                at: 0,
                stream: 1,
                period: 10,
                loss_num: 1,
                loss_den: 2,
            },
            TraceEvent::Dispatch {
                at: 10,
                stream: 1,
                seq: 0,
                len: 100,
                deadline: 10,
                on_time: true,
            },
            TraceEvent::Dispatch {
                at: 25,
                stream: 1,
                seq: 1,
                len: 100,
                deadline: 20,
                on_time: false,
            },
            TraceEvent::Dispatch {
                at: 30,
                stream: 1,
                seq: 2,
                len: 100,
                deadline: 30,
                on_time: true,
            },
            TraceEvent::Drop {
                at: 40,
                stream: 1,
                seq: 3,
            },
            TraceEvent::QueueDepth { at: 40, depth: 7 },
        ]);
        let s = a.stream(1).cloned().unwrap_or_default();
        assert_eq!(
            (s.sent(), s.sent_on_time, s.sent_late, s.dropped, s.bytes_sent),
            (3, 2, 1, 1, 300)
        );
        assert_eq!(a.latency.count(), 3);
        assert_eq!(a.latency.sum(), 5, "only the late dispatch adds lateness");
        // Gaps: 15 then 5 → one jitter sample of 10.
        assert_eq!(a.jitter.count(), 1);
        assert_eq!(a.jitter.sum(), 10);
        assert_eq!(a.max_backlog, 7);
        assert_eq!(a.admits, 1);
    }

    /// A reopened stream id starts a new session: the fold restarts its
    /// gap chain at the `Admit`, as the scheduler resets a reused slot's
    /// account, and keeps the id's counts.
    #[test]
    fn admit_restarts_the_gap_chain_and_keeps_counts() {
        let admit = TraceEvent::Admit {
            at: 0,
            stream: 4,
            period: 10,
            loss_num: 1,
            loss_den: 2,
        };
        let dispatch = |at: u64| TraceEvent::Dispatch {
            at,
            stream: 4,
            seq: at,
            len: 10,
            deadline: at,
            on_time: true,
        };
        let mut a = Aggregate::new();
        a.fold_all(&[
            admit,
            dispatch(0),
            dispatch(10),
            dispatch(20),
            admit,
            dispatch(1_005),
            dispatch(1_010),
        ]);
        // First session: gaps 10, 10 → one zero step. Second session: one
        // gap (5), no step; nothing measured across the reopen.
        assert_eq!((a.jitter.count(), a.jitter.sum(), a.jitter.max()), (1, 0, 0));
        let s = a.stream(4).cloned().unwrap_or_default();
        assert_eq!((s.sent(), s.jitter_samples, s.last_gap), (5, 1, Some(5)));
        assert_eq!(a.admits, 2);
    }
}
