//! The paper's Figure 4 structure: two heaps over head-of-line packets.
//!
//! *"This implementation of DWCS uses two heaps: one for deadlines and
//! another for loss-tolerances."* Head packets of every stream are indexed
//! twice: the **deadline heap** orders by the full precedence relation
//! (deadline-major, so its top *is* the DWCS winner), and the
//! **loss-tolerance heap** orders by current window-constraint, giving O(1)
//! access to the most-constrained stream (used by overload introspection,
//! [`DualHeap::most_constrained`]).
//!
//! Updates use **lazy invalidation**: each stream carries a version stamp;
//! stale heap entries are discarded when they surface. This keeps `update`
//! at O(log n) push without requiring decrease-key.
//!
//! Lazy invalidation leaves **tombstones**: the deadline heap accumulates
//! them on `remove` (stale entries only clear when they surface at the
//! top), and the tolerance heap — which `pop_min` never physically pops —
//! would otherwise grow by one entry per update without bound. Whenever a
//! heap's physical length exceeds `2·len + 64` it is compacted: rebuilt in
//! place retaining only current entries, reusing the existing buffer
//! (`into_vec` → `retain` → `from`), O(physical) per firing and amortized
//! O(1) per update. Compaction is *work-silent* — it charges no [`Work`] —
//! so the decision-work accounting the cost models price is identical
//! whether or not a run compacts. Every placement runs this structure:
//! the host engine, the NI (`dvcm::MediaSchedExt`) and each chassis card.

use super::{ScheduleRepr, Work};
use crate::key::HeadKey;
use crate::types::StreamId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Clone, Copy)]
struct Entry {
    key: HeadKey,
    sid: StreamId,
    stamp: u64,
}

/// Wrapper ordering entries by full DWCS precedence (deadline-major).
#[derive(Clone, Copy)]
struct ByPrecedence(Entry);

impl PartialEq for ByPrecedence {
    fn eq(&self, o: &Self) -> bool {
        self.cmp(o).is_eq()
    }
}
impl Eq for ByPrecedence {}
impl PartialOrd for ByPrecedence {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for ByPrecedence {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        self.0.key.precedence(&o.0.key)
    }
}

/// Wrapper ordering entries by window-constraint (loss-tolerance heap):
/// lowest `W'` first, zero-constraint ties by highest `y'`.
#[derive(Clone, Copy)]
struct ByTolerance(Entry);

impl ByTolerance {
    fn rank(&self) -> (fixedpt::Frac, Reverse<u32>, u64) {
        (self.0.key.constraint(), Reverse(self.0.key.y), self.0.key.arrival)
    }
}

impl PartialEq for ByTolerance {
    fn eq(&self, o: &Self) -> bool {
        self.cmp(o).is_eq()
    }
}
impl Eq for ByTolerance {}
impl PartialOrd for ByTolerance {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for ByTolerance {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        self.rank().cmp(&o.rank())
    }
}

/// Deadline heap + loss-tolerance heap with lazy invalidation.
pub struct DualHeap {
    deadline_heap: BinaryHeap<Reverse<ByPrecedence>>,
    tolerance_heap: BinaryHeap<Reverse<ByTolerance>>,
    /// Per-stream current stamp; `None` = not present.
    stamps: Vec<Option<u64>>,
    next_stamp: u64,
    len: usize,
    work: Work,
}

impl DualHeap {
    /// Heap pair sized for stream ids `0..capacity` (grows on demand).
    pub fn new(capacity: usize) -> DualHeap {
        DualHeap {
            deadline_heap: BinaryHeap::with_capacity(capacity),
            tolerance_heap: BinaryHeap::with_capacity(capacity),
            stamps: vec![None; capacity],
            next_stamp: 0,
            len: 0,
            work: Work::default(),
        }
    }

    fn ensure(&mut self, idx: usize) {
        if idx >= self.stamps.len() {
            // analysis: allow(ni-no-alloc) reason="grows only when a new stream id is admitted, bounded by stream count"
            self.stamps.resize(idx + 1, None);
        }
    }

    fn is_current(&self, e: &Entry) -> bool {
        self.stamps
            .get(e.sid.index())
            .copied()
            .flatten()
            .is_some_and(|s| s == e.stamp)
    }

    fn log_len(&self) -> u64 {
        (self.deadline_heap.len().max(2) as u64).ilog2() as u64
    }

    /// Physical entries held by the two heaps (live + tombstones) — the
    /// quantity the compaction threshold bounds; exposed for regression
    /// tests and memory accounting.
    pub fn physical_len(&self) -> (usize, usize) {
        (self.deadline_heap.len(), self.tolerance_heap.len())
    }

    /// Compact any heap whose tombstone count has outgrown the live set:
    /// physical > `2·len + 64`. The slack keeps tiny configurations (the
    /// repro experiments run handfuls of streams) from ever compacting, so
    /// their measured work is untouched; long bench and churn runs stay
    /// bounded at ~2× the live set.
    fn maybe_compact(&mut self) {
        let cap = 2 * self.len + 64;
        if self.deadline_heap.len() > cap {
            let mut v = core::mem::take(&mut self.deadline_heap).into_vec();
            // analysis: allow(ni-cycle-budget) reason="compaction fires only at physical > 2·len + 64 and keeps the current entries, so it is amortized O(1) per update; a static bound is ROADMAP item 7"
            v.retain(|Reverse(ByPrecedence(e))| {
                self.stamps
                    .get(e.sid.index())
                    .copied()
                    .flatten()
                    .is_some_and(|s| s == e.stamp)
            });
            self.deadline_heap = BinaryHeap::from(v);
        }
        if self.tolerance_heap.len() > cap {
            let mut v = core::mem::take(&mut self.tolerance_heap).into_vec();
            // analysis: allow(ni-cycle-budget) reason="compaction fires only at physical > 2·len + 64 and keeps the current entries, so it is amortized O(1) per update; a static bound is ROADMAP item 7"
            v.retain(|Reverse(ByTolerance(e))| {
                self.stamps
                    .get(e.sid.index())
                    .copied()
                    .flatten()
                    .is_some_and(|s| s == e.stamp)
            });
            self.tolerance_heap = BinaryHeap::from(v);
        }
    }

    /// The stream with the lowest current window-constraint — the
    /// loss-tolerance heap's reason to exist: in overload the scheduler (or
    /// an operator probe) can see which stream is closest to violation
    /// without a scan.
    pub fn most_constrained(&mut self) -> Option<(StreamId, HeadKey)> {
        while let Some(Reverse(ByTolerance(e))) = self.tolerance_heap.peek().copied() {
            self.work.touches += 1;
            if self.is_current(&e) {
                return Some((e.sid, e.key));
            }
            self.tolerance_heap.pop();
        }
        None
    }
}

impl ScheduleRepr for DualHeap {
    fn name(&self) -> &'static str {
        "dual-heap"
    }

    fn update(&mut self, sid: StreamId, key: HeadKey) {
        self.ensure(sid.index());
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        if self.stamps[sid.index()].is_none() {
            self.len += 1;
        }
        self.stamps[sid.index()] = Some(stamp);
        let e = Entry { key, sid, stamp };
        // Two sift-ups: ~log n compares and touches each.
        self.work.compares += 2 * self.log_len();
        self.work.touches += 2 * (self.log_len() + 1);
        // analysis: allow(ni-no-alloc) reason="heap capacity reserved at construction; lazy invalidation is the cost model this representation measures"
        self.deadline_heap.push(Reverse(ByPrecedence(e)));
        // analysis: allow(ni-no-alloc) reason="heap capacity reserved at construction; lazy invalidation is the cost model this representation measures"
        self.tolerance_heap.push(Reverse(ByTolerance(e)));
        self.maybe_compact();
    }

    fn remove(&mut self, sid: StreamId) {
        if sid.index() < self.stamps.len() && self.stamps[sid.index()].take().is_some() {
            self.len -= 1;
            self.work.touches += 1;
            // Entries invalidate lazily.
        }
    }

    // analysis: allow(ni-cycle-budget) reason="each stale entry is skipped once, and compaction at physical > 2·len + 64 caps their number, so the skips are amortized O(1) per update; a static bound is ROADMAP item 7"
    fn peek_min(&mut self) -> Option<(StreamId, HeadKey)> {
        while let Some(Reverse(ByPrecedence(e))) = self.deadline_heap.peek().copied() {
            self.work.touches += 1;
            if self.is_current(&e) {
                return Some((e.sid, e.key));
            }
            // Stale: discard (sift-down cost).
            self.work.compares += self.log_len();
            self.deadline_heap.pop();
        }
        None
    }

    fn pop_min(&mut self) -> Option<(StreamId, HeadKey)> {
        let (sid, key) = self.peek_min()?;
        self.work.compares += self.log_len();
        self.work.touches += self.log_len() + 1;
        self.deadline_heap.pop();
        self.stamps[sid.index()] = None;
        self.len -= 1;
        Some((sid, key))
    }

    fn len(&self) -> usize {
        self.len
    }

    fn take_work(&mut self) -> Work {
        core::mem::take(&mut self.work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(deadline: u64, x: u32, y: u32, arrival: u64) -> HeadKey {
        HeadKey {
            deadline,
            x,
            y,
            arrival,
        }
    }

    #[test]
    fn pops_by_precedence() {
        let mut r = DualHeap::new(8);
        r.update(StreamId(0), key(100, 1, 2, 0));
        r.update(StreamId(1), key(100, 0, 4, 1));
        r.update(StreamId(2), key(50, 3, 3, 2));
        assert_eq!(r.pop_min().unwrap().0, StreamId(2), "earliest deadline");
        assert_eq!(r.pop_min().unwrap().0, StreamId(1), "W'=0 beats W'=1/2");
        assert_eq!(r.pop_min().unwrap().0, StreamId(0));
    }

    #[test]
    fn stale_entries_are_skipped() {
        let mut r = DualHeap::new(4);
        r.update(StreamId(0), key(10, 1, 2, 0));
        r.update(StreamId(0), key(99, 1, 2, 1)); // supersedes
        r.update(StreamId(1), key(50, 1, 2, 2));
        assert_eq!(r.len(), 2);
        assert_eq!(r.pop_min().unwrap().0, StreamId(1));
        let (sid, k) = r.pop_min().unwrap();
        assert_eq!(sid, StreamId(0));
        assert_eq!(k.deadline, 99, "stale deadline-10 entry must not surface");
        assert!(r.pop_min().is_none());
    }

    #[test]
    fn removed_streams_never_surface() {
        let mut r = DualHeap::new(4);
        r.update(StreamId(0), key(10, 1, 2, 0));
        r.update(StreamId(1), key(20, 1, 2, 1));
        r.remove(StreamId(0));
        assert_eq!(r.len(), 1);
        assert_eq!(r.pop_min().unwrap().0, StreamId(1));
        assert!(r.pop_min().is_none());
    }

    #[test]
    fn tolerance_heap_finds_most_constrained() {
        let mut r = DualHeap::new(8);
        r.update(StreamId(0), key(10, 3, 4, 0)); // W' = 3/4
        r.update(StreamId(1), key(5, 1, 8, 1)); // W' = 1/8 — most constrained
        r.update(StreamId(2), key(1, 2, 4, 2)); // W' = 1/2
        let (sid, _) = r.most_constrained().unwrap();
        assert_eq!(sid, StreamId(1));
        // Deadline order is independent: pop gives stream 2 (deadline 1).
        assert_eq!(r.pop_min().unwrap().0, StreamId(2));
        // After popping, most_constrained tracks remaining current entries.
        let (sid, _) = r.most_constrained().unwrap();
        assert_eq!(sid, StreamId(1));
    }

    /// Sustained churn must not grow the heaps without bound: the
    /// tolerance heap gains an entry on *every* update (`pop_min` never
    /// physically pops it), and superseding updates leave stale deadline
    /// entries buried mid-heap. Before compaction this test's tolerance
    /// heap would end ~13,000 entries deep over 64 live streams.
    #[test]
    fn churn_keeps_physical_size_bounded() {
        let n = 64u32;
        let mut r = DualHeap::new(n as usize);
        for i in 0..n {
            r.update(StreamId(i), key(1_000 + u64::from(i), 2, 8, u64::from(i)));
        }
        let mut arrival = u64::from(n);
        for round in 0..10_000u64 {
            let (sid, k) = r.pop_min().unwrap();
            arrival += 1;
            r.update(sid, key(k.deadline + 1_000, k.x, k.y, arrival));
            if round % 3 == 0 {
                // Supersede a stream in place: a stale entry stays buried
                // in the deadline heap until compaction sweeps it.
                let victim = StreamId((round % u64::from(n)) as u32);
                arrival += 1;
                r.update(victim, key(k.deadline + 2_000, 2, 8, arrival));
            }
        }
        assert_eq!(r.len(), n as usize);
        let bound = 2 * r.len() + 64;
        let (d, t) = r.physical_len();
        assert!(d <= bound, "deadline heap {d} entries > bound {bound}");
        assert!(t <= bound, "tolerance heap {t} entries > bound {bound}");
        // The schedule is still coherent after many compactions.
        let mut seen = std::collections::BTreeSet::new();
        while let Some((sid, _)) = r.pop_min() {
            assert!(seen.insert(sid), "stream surfaced twice after compaction");
        }
        assert_eq!(seen.len(), n as usize);
    }

    #[test]
    fn zero_constraint_outranks_in_tolerance_heap() {
        let mut r = DualHeap::new(8);
        r.update(StreamId(0), key(10, 0, 2, 0));
        r.update(StreamId(1), key(10, 0, 9, 1));
        r.update(StreamId(2), key(10, 1, 9, 2));
        let (sid, _) = r.most_constrained().unwrap();
        assert_eq!(sid, StreamId(1), "zero W' with deepest window first");
    }
}
