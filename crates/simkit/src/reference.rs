//! The original binary-heap executive, kept as a **reference
//! implementation**.
//!
//! [`Engine`](crate::Engine) now runs on a hierarchical timing wheel (see
//! [`crate::engine`]); this module preserves the pre-wheel executive —
//! one `BinaryHeap` of `(time, seq, boxed closure)` entries — as a
//! **differential oracle**. The wheel's contract is that it fires the
//! *exact* `(time, seq)` sequence the heap fired. The property test in
//! `tests/engine_differential.rs` drives both executives with identical
//! random schedules (same-instant bursts, cancels, `run_until`
//! boundaries) and asserts the logs match event for event.
//!
//! The one deliberate difference from the historical code: `cancel` here
//! already carries the leak fix (cancelling a fired or unknown id is a
//! true no-op), so `pending()` is exact on both sides of the differential
//! test.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};

/// A scheduled event: a one-shot closure over the world and the engine.
pub type HeapEventFn<W> = Box<dyn FnOnce(&mut W, &mut HeapEngine<W>)>;

/// Identifier of a scheduled event, usable with [`HeapEngine::cancel`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct HeapEventId(u64);

struct Entry<W> {
    at: SimTime,
    seq: u64,
    f: HeapEventFn<W>,
}

impl<W> PartialEq for Entry<W> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<W> Eq for Entry<W> {}
impl<W> PartialOrd for Entry<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for Entry<W> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first, and
        // among equals lowest sequence first.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The heap-based discrete-event engine for worlds of type `W`.
///
/// API-compatible with [`Engine`](crate::Engine); the differential test
/// observes firings through the world.
pub struct HeapEngine<W> {
    now: SimTime,
    heap: BinaryHeap<Entry<W>>,
    seq: u64,
    /// Seqs scheduled and not yet fired (exact-cancel bookkeeping).
    live: BTreeSet<u64>,
    /// Seqs cancelled while live; lazily discarded as they surface.
    cancelled: BTreeSet<u64>,
    fired: u64,
}

impl<W> Default for HeapEngine<W> {
    fn default() -> Self {
        HeapEngine::new()
    }
}

impl<W> HeapEngine<W> {
    /// A fresh engine at t = 0 with an empty calendar.
    pub fn new() -> HeapEngine<W> {
        HeapEngine {
            now: SimTime::ZERO,
            heap: BinaryHeap::new(),
            seq: 0,
            live: BTreeSet::new(),
            cancelled: BTreeSet::new(),
            fired: 0,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events fired so far (diagnostics).
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// Number of pending (non-cancelled) events.
    pub fn pending(&self) -> usize {
        self.live.len()
    }

    /// Schedule `f` at absolute time `at` (clamped to `now`, flagged in
    /// debug builds when in the past).
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut W, &mut HeapEngine<W>) + 'static) -> HeapEventId {
        debug_assert!(at >= self.now, "event scheduled in the past: {at:?} < {:?}", self.now);
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.live.insert(seq);
        self.heap.push(Entry {
            at,
            seq,
            f: Box::new(f),
        });
        HeapEventId(seq)
    }

    /// Schedule `f` after a delay from now.
    pub fn schedule_in(
        &mut self,
        dt: SimDuration,
        f: impl FnOnce(&mut W, &mut HeapEngine<W>) + 'static,
    ) -> HeapEventId {
        self.schedule_at(self.now + dt, f)
    }

    /// Schedule `f` at the current instant, after all already-queued events
    /// for this instant (FIFO ordering by sequence).
    pub fn schedule_now(&mut self, f: impl FnOnce(&mut W, &mut HeapEngine<W>) + 'static) -> HeapEventId {
        self.schedule_at(self.now, f)
    }

    /// Cancel a pending event. A fired or unknown id is a true no-op.
    pub fn cancel(&mut self, id: HeapEventId) {
        if self.live.remove(&id.0) {
            self.cancelled.insert(id.0);
        }
    }

    /// Fire the next event, if any. Returns `false` when the calendar is
    /// exhausted.
    pub fn step(&mut self, world: &mut W) -> bool {
        while let Some(entry) = self.heap.pop() {
            if self.cancelled.remove(&entry.seq) {
                continue;
            }
            debug_assert!(entry.at >= self.now);
            self.live.remove(&entry.seq);
            self.now = entry.at;
            self.fired += 1;
            (entry.f)(world, self);
            return true;
        }
        false
    }

    /// Run until the calendar is empty.
    pub fn run(&mut self, world: &mut W) {
        while self.step(world) {}
    }

    /// Run while events exist at or before `t`; then advance the clock to
    /// exactly `t` (even if the calendar goes quiet earlier).
    pub fn run_until(&mut self, world: &mut W, t: SimTime) {
        while let Some(next) = self.peek_time() {
            if next > t {
                break;
            }
            self.step(world);
        }
        if self.now < t {
            self.now = t;
        }
    }

    /// Run at most `n` events; returns the number actually fired.
    pub fn run_steps(&mut self, world: &mut W, n: u64) -> u64 {
        let mut fired = 0;
        while fired < n && self.step(world) {
            fired += 1;
        }
        fired
    }

    /// Time of the next pending event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(entry) = self.heap.peek() {
            if self.cancelled.contains(&entry.seq) {
                let seq = entry.seq;
                self.heap.pop();
                self.cancelled.remove(&seq);
                continue;
            }
            return Some(entry.at);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct World {
        log: Vec<u64>,
    }

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn fires_in_time_then_seq_order() {
        let mut eng: HeapEngine<World> = HeapEngine::new();
        let mut w = World::default();
        eng.schedule_at(at(30), |w: &mut World, e| w.log.push(e.now().as_nanos()));
        eng.schedule_at(at(10), |w: &mut World, e| w.log.push(e.now().as_nanos()));
        eng.schedule_at(at(10), |w: &mut World, e| w.log.push(e.now().as_nanos() + 1));
        eng.run(&mut w);
        assert_eq!(w.log, vec![10, 11, 30]);
    }

    #[test]
    fn cancel_of_fired_or_unknown_id_is_a_noop() {
        let mut eng: HeapEngine<World> = HeapEngine::new();
        let mut w = World::default();
        let id = eng.schedule_at(at(5), |w: &mut World, _| w.log.push(5));
        assert!(eng.step(&mut w));
        eng.cancel(id); // already fired
        eng.cancel(id); // twice
        assert_eq!(eng.pending(), 0, "stale cancels do not distort pending()");
        let live = eng.schedule_at(at(9), |w: &mut World, _| w.log.push(9));
        eng.cancel(live);
        eng.cancel(live); // double-cancel of a pending id
        assert_eq!(eng.pending(), 0);
        eng.run(&mut w);
        assert_eq!(w.log, vec![5]);
    }
}
