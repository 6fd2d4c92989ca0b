//! The paper's Figure 4 structure, built as one heap over head-of-line
//! packets.
//!
//! *"This implementation of DWCS uses two heaps: one for deadlines and
//! another for loss-tolerances."* The **deadline heap** orders head
//! packets by the full precedence relation (deadline-major, with the
//! window-constraint and FCFS tie-breaks folded in), so its top *is* the
//! DWCS winner. That makes Figure 4's **loss-tolerance heap** redundant
//! for scheduling: nothing in a decision reads it, so it is not built.
//! It is still *priced*: `update` charges [`Work`] for two sift-ups, the
//! i960 cost of keeping the paper's heap pair, which Tables 1–3, Ablation
//! 4 and the golden traces are calibrated against.
//!
//! Updates use **lazy invalidation**: each stream carries a version stamp;
//! stale heap entries are discarded when they surface. This keeps `update`
//! at O(log n) push without requiring decrease-key.
//!
//! Lazy invalidation leaves **tombstones**: superseded and removed
//! entries stay in the heap until they surface at the top. Whenever the
//! heap's physical length exceeds `2·len + 64` it is compacted: rebuilt
//! in place retaining only current entries, reusing the existing buffer
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

/// Deadline heap with lazy invalidation, priced as Figure 4's heap pair.
pub struct DualHeap {
    deadline_heap: BinaryHeap<Reverse<ByPrecedence>>,
    /// Per-stream current stamp; `None` = not present.
    stamps: Vec<Option<u64>>,
    next_stamp: u64,
    len: usize,
    work: Work,
}

impl DualHeap {
    /// Heap sized for stream ids `0..capacity` (grows on demand).
    pub fn new(capacity: usize) -> DualHeap {
        DualHeap {
            deadline_heap: BinaryHeap::with_capacity(capacity),
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

    /// Physical entries held by the heap (live + tombstones) — the
    /// quantity the compaction threshold bounds; exposed for regression
    /// tests and memory accounting.
    pub fn physical_len(&self) -> usize {
        self.deadline_heap.len()
    }

    /// Compact the heap once its tombstone count has outgrown the live
    /// set: physical > `2·len + 64`. The slack keeps tiny configurations
    /// (the repro experiments run handfuls of streams) from ever
    /// compacting, so their measured work is untouched; long bench and
    /// churn runs stay bounded at ~2× the live set.
    fn maybe_compact(&mut self) {
        if self.deadline_heap.len() > 2 * self.len + 64 {
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
        // Two sift-ups — Figure 4's deadline and loss-tolerance heaps —
        // ~log n compares and touches each. Only the first is built.
        self.work.compares += 2 * self.log_len();
        self.work.touches += 2 * (self.log_len() + 1);
        // analysis: allow(ni-no-alloc) reason="heap capacity reserved at construction; lazy invalidation is the cost model this representation measures"
        self.deadline_heap.push(Reverse(ByPrecedence(e)));
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

    /// The `Work` each call charges is the i960 price of Figure 4's heap
    /// pair, and Tables 1–3, Ablation 4 and the golden traces are
    /// calibrated against it: `update` is two sift-ups although one heap
    /// is built. A change to the host layout must not move these counts.
    #[test]
    fn work_per_call_is_the_heap_pair_price() {
        let mut r = DualHeap::new(4);
        let mut charged = Vec::new();
        let mut step = |r: &mut DualHeap, what: &'static str| {
            let w = r.take_work();
            charged.push((what, w.compares, w.touches));
        };
        r.update(StreamId(0), key(100, 1, 2, 0));
        step(&mut r, "update s0");
        r.update(StreamId(1), key(50, 1, 4, 1));
        step(&mut r, "update s1");
        r.update(StreamId(2), key(70, 0, 2, 2));
        step(&mut r, "update s2");
        r.update(StreamId(3), key(200, 2, 8, 3));
        step(&mut r, "update s3");
        r.update(StreamId(0), key(300, 1, 2, 4));
        step(&mut r, "supersede s0");
        assert_eq!(r.peek_min().map(|(sid, _)| sid), Some(StreamId(1)));
        step(&mut r, "peek s1");
        assert_eq!(r.pop_min().map(|(sid, _)| sid), Some(StreamId(1)));
        step(&mut r, "pop s1");
        r.remove(StreamId(2));
        step(&mut r, "remove s2");
        // Skips the removed s2 and the superseded s0 before finding s3.
        assert_eq!(r.peek_min().map(|(sid, _)| sid), Some(StreamId(3)));
        step(&mut r, "peek past two stale");
        assert_eq!(r.pop_min().map(|(sid, _)| sid), Some(StreamId(3)));
        step(&mut r, "pop s3");
        assert_eq!(r.pop_min().map(|(sid, k)| (sid, k.deadline)), Some((StreamId(0), 300)));
        step(&mut r, "pop s0");
        assert!(r.pop_min().is_none());
        step(&mut r, "pop empty");
        r.remove(StreamId(2));
        step(&mut r, "remove absent");
        assert_eq!(
            charged,
            [
                ("update s0", 2, 4),
                ("update s1", 2, 4),
                ("update s2", 2, 4),
                ("update s3", 2, 4),
                ("supersede s0", 4, 6),
                ("peek s1", 0, 1),
                ("pop s1", 2, 4),
                ("remove s2", 0, 1),
                ("peek past two stale", 3, 3),
                ("pop s3", 1, 3),
                ("pop s0", 1, 3),
                ("pop empty", 0, 0),
                ("remove absent", 0, 0),
            ]
        );
    }

    /// Sustained churn must not grow the heap without bound: superseding
    /// updates leave stale entries buried mid-heap, which only surface
    /// when compaction sweeps them.
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
                // in the heap until compaction sweeps it.
                let victim = StreamId((round % u64::from(n)) as u32);
                arrival += 1;
                r.update(victim, key(k.deadline + 2_000, 2, 8, arrival));
            }
        }
        assert_eq!(r.len(), n as usize);
        let bound = 2 * r.len() + 64;
        let d = r.physical_len();
        assert!(d <= bound, "heap {d} entries > bound {bound}");
        // The schedule is still coherent after many compactions.
        let mut seen = std::collections::BTreeSet::new();
        while let Some((sid, _)) = r.pop_min() {
            assert!(seen.insert(sid), "stream surfaced twice after compaction");
        }
        assert_eq!(seen.len(), n as usize);
    }
}
