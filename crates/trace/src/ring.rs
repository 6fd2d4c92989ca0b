//! The NI-resident trace ring: fixed capacity, drop-oldest, exact
//! accounting.
//!
//! # Sizing
//!
//! The i960RD evaluation boards carry 4 MB of local RAM shared by frame
//! buffers, stream state and the DVCM run-time (paper §4). A
//! [`TraceEvent`] occupies well under 64 bytes, so the default NI
//! capacity of [`TraceRing::NI_DEFAULT_CAPACITY`] events costs at most
//! ~512 KB — an eighth of board RAM — while holding several seconds of
//! events at the paper's decision rates. When the host drains too
//! slowly the ring **drops its oldest events** (the newest events are
//! the ones a stalled host needs to diagnose the stall) and counts every
//! loss in [`overflow`](TraceRing::overflow), so aggregation always
//! knows exactly how much it did not see.
//!
//! # Invariant
//!
//! `pushed == drained + len + overflow` at every point in the ring's
//! life — pinned by the property suite in `tests/ring_properties.rs`.
//!
//! Like all NI-resident code this module is integer-only and
//! panic-free; the single allocation happens at construction
//! (`VecDeque::with_capacity`) and steady-state push/drain never grows
//! the buffer.

use crate::event::TraceEvent;
use std::collections::VecDeque;

/// Fixed-capacity drop-oldest event buffer.
///
/// Capacity 0 builds a *disabled* ring: pushes are counted as overflow
/// and nothing is retained, letting embeddings keep one unconditional
/// code path.
#[derive(Debug, Default)]
pub struct TraceRing {
    buf: VecDeque<TraceEvent>,
    cap: usize,
    pushed: u64,
    overflow: u64,
    drained: u64,
}

impl TraceRing {
    /// Default NI-side capacity (events); see the module docs for the
    /// memory-budget arithmetic.
    pub const NI_DEFAULT_CAPACITY: usize = 8192;

    /// A ring holding at most `cap` events (0 = disabled).
    pub fn with_capacity(cap: usize) -> TraceRing {
        TraceRing {
            buf: VecDeque::with_capacity(cap),
            cap,
            pushed: 0,
            overflow: 0,
            drained: 0,
        }
    }

    /// Append one event, evicting the oldest if the ring is full.
    // analysis: hot
    pub fn push(&mut self, ev: TraceEvent) {
        self.pushed += 1;
        if self.cap == 0 {
            self.overflow += 1;
            return;
        }
        if self.buf.len() >= self.cap {
            let _ = self.buf.pop_front();
            self.overflow += 1;
        }
        // analysis: allow(ni-no-alloc) reason="bounded by `cap`: eviction precedes the push at capacity, which is reserved at construction"
        self.buf.push_back(ev);
    }

    /// Remove and return all retained events, oldest first.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        let (front, back) = self.buf.as_slices();
        let mut out = Vec::with_capacity(front.len() + back.len());
        out.extend_from_slice(front);
        out.extend_from_slice(back);
        self.buf.clear();
        self.drained += out.len() as u64;
        out
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring currently retains no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured capacity (0 = disabled).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total events ever pushed.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Total events lost to eviction (plus every push while disabled).
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total events handed out by [`drain`](TraceRing::drain).
    pub fn drained(&self) -> u64 {
        self.drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64) -> TraceEvent {
        TraceEvent::Drop {
            at: seq,
            stream: 0,
            seq,
        }
    }

    #[test]
    fn drop_oldest_with_exact_overflow() {
        let mut r = TraceRing::with_capacity(3);
        for i in 0..5 {
            r.push(ev(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.overflow(), 2);
        let out = r.drain();
        assert_eq!(out, vec![ev(2), ev(3), ev(4)], "oldest evicted, order kept");
        assert_eq!(r.pushed(), r.drained() + r.len() as u64 + r.overflow());
    }

    #[test]
    fn zero_capacity_is_disabled() {
        let mut r = TraceRing::with_capacity(0);
        for i in 0..4 {
            r.push(ev(i));
        }
        assert_eq!(r.len(), 0);
        assert_eq!(r.overflow(), 4);
        assert!(r.drain().is_empty());
        assert_eq!(r.pushed(), r.drained() + r.len() as u64 + r.overflow());
    }

    #[test]
    fn drain_resets_retention_but_not_counters() {
        let mut r = TraceRing::with_capacity(8);
        r.push(ev(0));
        r.push(ev(1));
        assert_eq!(r.drain().len(), 2);
        assert!(r.is_empty());
        r.push(ev(2));
        assert_eq!(r.drain(), vec![ev(2)]);
        assert_eq!(r.pushed(), 3);
        assert_eq!(r.drained(), 3);
        assert_eq!(r.overflow(), 0);
    }
}
