//! Pluggable schedule representations.
//!
//! §3.1.1 of the paper: *"Extensible scheduler design decoupling scheduling
//! analysis and schedule representation (data structures). This allows
//! different data structures to be used for experimentation (FCFS circular
//! buffers, sorted lists, heaps or calendar queues)."*
//!
//! A representation indexes **head-of-line packets only** — one entry per
//! stream (paper Figure 4) — and must answer "which stream's head packet is
//! minimal under the DWCS precedence order" ([`HeadKey`]). All three
//! implementations are observationally identical; they differ in asymptotics
//! and constant factors. `ablation_report`'s Ablation 4 prices each one's
//! decision on the i960RD, and `perfbench` times `DualHeap` and
//! `BatchSoa` on the host:
//!
//! | repr | insert | pop_min | notes |
//! |---|---|---|---|
//! | [`LinearScan`] | O(1) | O(n) | what the i960 firmware does ("loops through the frame descriptors") |
//! | [`DualHeap`]   | O(log n) | O(log n) | paper Figure 4: priced as deadline + loss-tolerance heaps, built as the deadline heap; lazy invalidation |
//! | [`BatchSoa`] | O(1) + deferred | O(log n) amortised | struct-of-arrays winner tree, dirty-tracked incremental refresh |
//!
//! The quote's sorted lists and calendar queues are not provided: at the
//! tens of streams one NI holds, the decision's fixed work dominates and
//! the structure moves its price by under 5 %.
//!
//! Every operation accrues a [`Work`] tally (comparisons + memory touches;
//! defined in `fixedpt::ops` so `hwsim` prices this very type) which the
//! i960 cost model converts into simulated cycles — that is how
//! the *same algorithm execution* yields different decision times for
//! different data structures and cache settings (Tables 1–3 run
//! [`DualHeap`]; Ablation 4 runs all three).

mod batch;
mod dual_heap;
mod linear;

pub use batch::BatchSoa;
pub use dual_heap::DualHeap;
pub use fixedpt::ops::Work;
pub use linear::LinearScan;

use crate::key::HeadKey;
use crate::types::StreamId;

/// A schedule representation: an index over per-stream head packets.
///
/// Invariants callers maintain:
/// * a stream appears at most once (insert ⇒ not present; update ⇒ present
///   or absent, both fine);
/// * `remove`/`pop_min` drop the stream until the next insert/update.
pub trait ScheduleRepr {
    /// Human-readable name (appears in bench output).
    fn name(&self) -> &'static str;

    /// Add (or replace) the head entry for `sid`.
    fn update(&mut self, sid: StreamId, key: HeadKey);

    /// Remove `sid`'s entry if present.
    fn remove(&mut self, sid: StreamId);

    /// The minimal entry under DWCS precedence, without removing it.
    /// (`&mut` so lazily-invalidated structures may clean up.)
    fn peek_min(&mut self) -> Option<(StreamId, HeadKey)>;

    /// Remove and return the minimal entry.
    fn pop_min(&mut self) -> Option<(StreamId, HeadKey)>;

    /// Number of streams currently indexed.
    fn len(&self) -> usize;

    /// Whether no streams are indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain the work tally accumulated since the last call.
    fn take_work(&mut self) -> Work;
}

#[cfg(test)]
mod cross_check {
    use super::*;
    use crate::types::Time;

    fn key(deadline: Time, x: u32, y: u32, arrival: u64) -> HeadKey {
        HeadKey {
            deadline,
            x,
            y,
            arrival,
        }
    }

    /// Drive the same operation sequence through every representation and
    /// demand identical pop orders.
    fn exercise(ops: &[(u32, HeadKey)]) {
        let mut reprs: Vec<Box<dyn ScheduleRepr>> = vec![
            Box::new(LinearScan::new(64)),
            Box::new(DualHeap::new(64)),
            Box::new(BatchSoa::new(64)),
        ];
        for r in &mut reprs {
            for &(sid, k) in ops {
                r.update(StreamId(sid), k);
            }
        }
        let reference: Vec<_> = {
            let r = &mut reprs[0];
            let mut order = Vec::new();
            while let Some((sid, _)) = r.pop_min() {
                order.push(sid);
            }
            order
        };
        for r in &mut reprs[1..] {
            let mut order = Vec::new();
            while let Some((sid, _)) = r.pop_min() {
                order.push(sid);
            }
            assert_eq!(order, reference, "repr {} disagrees with LinearScan", r.name());
        }
    }

    #[test]
    fn identical_pop_order_simple() {
        exercise(&[
            (0, key(300, 1, 2, 0)),
            (1, key(100, 1, 2, 1)),
            (2, key(200, 0, 4, 2)),
            (3, key(100, 0, 8, 3)),
            (4, key(100, 0, 2, 4)),
        ]);
    }

    #[test]
    fn identical_pop_order_with_updates() {
        let mut reprs: Vec<Box<dyn ScheduleRepr>> = vec![
            Box::new(LinearScan::new(16)),
            Box::new(DualHeap::new(16)),
            Box::new(BatchSoa::new(16)),
        ];
        for r in &mut reprs {
            r.update(StreamId(0), key(1_000_000, 1, 4, 0));
            r.update(StreamId(1), key(2_000_000, 1, 4, 1));
            r.update(StreamId(2), key(3_000_000, 1, 4, 2));
            // Move stream 2 to the front, remove stream 0.
            r.update(StreamId(2), key(500_000, 1, 4, 3));
            r.remove(StreamId(0));
            assert_eq!(r.len(), 2, "{}", r.name());
            let (first, _) = r.pop_min().unwrap();
            assert_eq!(first, StreamId(2), "{}", r.name());
            let (second, _) = r.pop_min().unwrap();
            assert_eq!(second, StreamId(1), "{}", r.name());
            assert!(r.pop_min().is_none(), "{}", r.name());
        }
    }

    #[test]
    fn peek_matches_pop() {
        let mut reprs: Vec<Box<dyn ScheduleRepr>> = vec![
            Box::new(LinearScan::new(16)),
            Box::new(DualHeap::new(16)),
            Box::new(BatchSoa::new(16)),
        ];
        for r in &mut reprs {
            for sid in 0..8u32 {
                r.update(StreamId(sid), key(1_000_000 * u64::from(8 - sid), 1, 2, u64::from(sid)));
            }
            while let Some(peeked) = r.peek_min() {
                let popped = r.pop_min().unwrap();
                assert_eq!(peeked.0, popped.0, "{}", r.name());
            }
            assert!(r.is_empty(), "{}", r.name());
        }
    }

    #[test]
    fn work_is_reported() {
        let mut r = LinearScan::new(8);
        r.update(StreamId(0), key(10, 1, 2, 0));
        r.update(StreamId(1), key(20, 1, 2, 1));
        let _ = r.pop_min();
        let w = r.take_work();
        assert!(w.touches > 0);
        assert_eq!(r.take_work(), Work::default(), "take drains");
    }
}
