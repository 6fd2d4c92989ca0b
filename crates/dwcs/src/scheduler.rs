//! The DWCS scheduler proper.
//!
//! Construction mirrors the paper's Figure 4: frames are queued per stream
//! (FIFO — all packets of a stream share the same loss-tolerance and their
//! deadlines are fixed offsets of each other, so in-stream order is always
//! arrival order), head-of-line packets are indexed by a pluggable
//! [`ScheduleRepr`], and each scheduling decision:
//!
//! 1. pops the precedence-minimal head packet;
//! 2. if its deadline has passed: applies the *miss* window adjustment and —
//!    for droppable streams — discards it without transmission ("can safely
//!    drop late packets in lossy streams without unnecessarily transmitting
//!    them") and tries the next candidate;
//! 3. otherwise applies the *timely service* adjustment and dispatches it.
//!
//! Scheduling and dispatch are **coupled**: a decision is a dispatch.
//! §3.1.1 weighs this against decoupling, which "allows scheduling
//! decisions to be made at a higher rate", and coupling wins on the NI:
//! it "allows a single data structure to hold frame descriptors and
//! conserves memory. Also, packets do not suffer additional queuing delay
//! and jitter in dispatch queues."
//!
//! This module is the decide-and-account half. The service pass that
//! wraps it — read the clock, decide, reclaim drops, trace, deliver at
//! most one frame — is [`SchedService::service_once`](crate::svc::SchedService::service_once),
//! which every placement runs. [`DwcsScheduler::schedule_next`] serves
//! harnesses that price decisions themselves; it hands dropped frames to a
//! callback ([`DwcsScheduler::schedule_next_with`]) and keeps none of them.

use crate::key::HeadKey;
use crate::qos::{LossPolicy, MissOutcome, StreamQos, Window};
use crate::repr::{ScheduleRepr, Work};
use crate::types::{FrameDesc, StreamId, Time};
use nistream_trace::StreamAccount;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// When a packet becomes eligible for service.
///
/// The deadline is "the latest time a packet can *commence* service". A
/// work-conserving scheduler sends a sole ready packet immediately; the
/// paper's streaming system instead services each packet *at* its deadline
/// — that is what paces a pre-loaded file down to the stream's negotiated
/// rate (the "settling bandwidth" of Figures 7/9) and what makes queuing
/// delay grow linearly with frame number even on an unloaded server
/// (Figures 8/10).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Pacing {
    /// Serve the minimal head packet as soon as the scheduler runs.
    WorkConserving,
    /// Serve a packet no earlier than its deadline (rate-paced service).
    #[default]
    DeadlinePaced,
}

/// How successive deadlines are anchored.
///
/// The paper states both readings: deadlines are "determined from a
/// specification of the maximum allowable time between servicing
/// consecutive packets" (service-anchored) and "offset by a fixed amount
/// from its predecessor" (arrival-grid). They coincide while the scheduler
/// keeps up and diverge under sustained lateness:
///
/// * [`DeadlineAnchor::ServiceChain`] — the next deadline is one period
///   past `max(previous deadline, previous service commencement)`. Falling
///   behind slips the whole chain: *rate* degrades persistently (this is
///   what reproduces Figures 7–8) but backlogged packets quickly stop
///   counting as late.
/// * [`DeadlineAnchor::ArrivalGrid`] — deadlines are fixed at enqueue,
///   one period apart from the predecessor's. A backlog stays late until
///   worked off, so loss-tolerances bite continuously — the classic DWCS
///   bandwidth-sharing behaviour ("share bandwidth among competing clients
///   in strict proportion to their … loss-tolerances").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DeadlineAnchor {
    /// Chain from `max(prev deadline, prev service) + T`.
    #[default]
    ServiceChain,
    /// Fix each packet's deadline at enqueue: `prev deadline + T`.
    ArrivalGrid,
}

/// Scheduler configuration.
#[derive(Clone, Debug)]
pub struct SchedulerConfig {
    /// Eligibility pacing.
    pub pacing: Pacing,
    /// Deadline anchoring (see [`DeadlineAnchor`]).
    pub anchor: DeadlineAnchor,
    /// Lateness tolerance: a packet only counts as *late* (miss/drop) when
    /// service commences more than this many nanoseconds past its
    /// deadline. Zero (the default) is the strict DWCS reading; the host
    /// experiments use one period, matching the observed behaviour that
    /// mild CPU-contention jitter delays frames without dropping them
    /// while sustained contention sheds them (Figures 7–8).
    pub late_grace: Time,
    /// Upper bound on late-frame drops processed within one decision
    /// (keeps worst-case decision latency bounded on the co-processor).
    pub max_drops_per_decision: u32,
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            pacing: Pacing::WorkConserving,
            anchor: DeadlineAnchor::ServiceChain,
            late_grace: 0,
            max_drops_per_decision: 64,
        }
    }
}

/// A frame selected for transmission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DispatchedFrame {
    /// The frame descriptor (address, length, stream).
    pub desc: FrameDesc,
    /// The deadline it was scheduled against.
    pub deadline: Time,
    /// Whether service commenced at or before the deadline.
    pub on_time: bool,
}

/// Outcome of one scheduling decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchedDecision {
    /// The frame to transmit (`None`: nothing eligible — all queues empty,
    /// or everything late got dropped).
    pub frame: Option<DispatchedFrame>,
    /// Late frames dropped while reaching this decision.
    pub dropped: u32,
    /// Data-structure work performed (for the co-processor cost model).
    pub work: Work,
}

struct QueuedFrame {
    desc: FrameDesc,
    arrival: u64,
    /// Fixed deadline under [`DeadlineAnchor::ArrivalGrid`] (unused by the
    /// service chain).
    grid_deadline: Time,
}

struct StreamSlot {
    qos: StreamQos,
    window: Window,
    queue: VecDeque<QueuedFrame>,
    /// Deadline of the current head packet (valid while non-empty).
    head_deadline: Time,
    /// Chain anchor: `max(previous deadline, previous service commence)`.
    /// The paper derives deadlines "from a specification of the maximum
    /// allowable time between servicing consecutive packets in the same
    /// stream": the next deadline is one period after the predecessor was
    /// *due or served, whichever is later* — so a scheduler that falls
    /// behind slips the whole chain (persistent rate degradation under
    /// sustained contention, Figure 7) instead of accumulating an
    /// ever-later backlog against a fixed grid.
    chain: Time,
    /// Named by its type, not the `StreamStats` alias, so that
    /// `nistream-analysis` prices the account's methods.
    stats: StreamAccount,
    active: bool,
}

/// The DWCS scheduler, generic over schedule representation.
pub struct DwcsScheduler<R> {
    streams: Vec<StreamSlot>,
    /// Indices of the inactive slots in `streams`, lowest on top, so
    /// [`DwcsScheduler::add_stream`] reuses the lowest free slot in
    /// O(log n) instead of scanning for it.
    free_slots: BinaryHeap<Reverse<u32>>,
    repr: R,
    cfg: SchedulerConfig,
    arrival_seq: u64,
    live_streams: usize,
    /// Frames queued across all active streams, maintained incrementally
    /// at every queue mutation so [`DwcsScheduler::total_backlog`] — read
    /// twice per service pass — is O(1) instead of an O(streams) scan.
    queued_frames: u64,
}

impl<R: ScheduleRepr> DwcsScheduler<R> {
    /// New scheduler over the given representation with default config.
    pub fn new(repr: R) -> DwcsScheduler<R> {
        DwcsScheduler::with_config(repr, SchedulerConfig::default())
    }

    /// New scheduler with explicit configuration.
    pub fn with_config(repr: R, cfg: SchedulerConfig) -> DwcsScheduler<R> {
        DwcsScheduler {
            streams: Vec::new(),
            free_slots: BinaryHeap::new(),
            repr,
            cfg,
            arrival_seq: 0,
            live_streams: 0,
            queued_frames: 0,
        }
    }

    /// Register a stream; returns its dense id. The lowest slot of a
    /// removed stream is reused first, so ids stay dense and a reopened id
    /// is the same one a scan for the first inactive slot would find.
    pub fn add_stream(&mut self, qos: StreamQos) -> StreamId {
        self.live_streams += 1;
        let slot = StreamSlot {
            qos,
            window: Window::new(&qos),
            queue: VecDeque::new(),
            head_deadline: 0,
            chain: 0,
            stats: StreamAccount::default(),
            active: true,
        };
        if let Some(Reverse(i)) = self.free_slots.pop() {
            self.streams[i as usize] = slot;
            StreamId(i)
        } else {
            self.streams.push(slot);
            StreamId((self.streams.len() - 1) as u32)
        }
    }

    /// Deregister a stream, discarding its backlog.
    pub fn remove_stream(&mut self, sid: StreamId) {
        self.close_stream_with(sid, |_| {});
    }

    /// Close a stream: deregister it, handing every still-queued
    /// descriptor to `f` (embeddings that own payload storage reclaim the
    /// slots; see [`crate::svc::Platform::reclaim`]). The stream's account
    /// counts each of them as a drop.
    pub fn close_stream_with(&mut self, sid: StreamId, f: impl FnMut(FrameDesc)) {
        self.deregister(sid, true, f);
    }

    /// Deregister a stream whose backlog moves to another queue: every
    /// still-queued descriptor goes to `f`, and the stream's account keeps
    /// counting them as queued, not dropped (a chassis migration
    /// re-enqueues them on the stream's new card).
    pub fn remove_stream_with(&mut self, sid: StreamId, f: impl FnMut(FrameDesc)) {
        self.deregister(sid, false, f);
    }

    fn deregister(&mut self, sid: StreamId, dropped: bool, mut f: impl FnMut(FrameDesc)) {
        let slot = &mut self.streams[sid.index()];
        if slot.active {
            slot.active = false;
            self.queued_frames -= slot.queue.len() as u64;
            for qf in slot.queue.drain(..) {
                if dropped {
                    slot.stats.note_dropped();
                }
                f(qf.desc);
            }
            self.repr.remove(sid);
            self.live_streams -= 1;
            self.free_slots.push(Reverse(sid.0));
        }
    }

    /// Number of registered streams.
    pub fn stream_count(&self) -> usize {
        self.live_streams
    }

    /// Enqueue a frame for `sid` at time `now`.
    ///
    /// Deadline assignment: each packet's deadline is its predecessor's
    /// plus the stream period `T` ("each successive packet in a stream has
    /// a deadline that is offset by a fixed amount from its predecessor").
    /// When a stream goes idle (empty queue) and its deadline chain has
    /// fallen behind the clock, the chain re-anchors at `now` — otherwise a
    /// paused stream would resume permanently late.
    // analysis: hot
    pub fn enqueue(&mut self, sid: StreamId, desc: FrameDesc, now: Time) {
        let arrival = self.arrival_seq;
        self.arrival_seq += 1;
        let slot = &mut self.streams[sid.index()];
        assert!(slot.active, "enqueue on removed stream {sid}");
        let was_empty = slot.queue.is_empty();
        let grid_deadline = if self.cfg.anchor == DeadlineAnchor::ArrivalGrid {
            // Fix the deadline now: one period past the predecessor's
            // (re-anchored after an idle gap).
            if was_empty && slot.chain < now {
                slot.chain = now;
            }
            let d = slot.chain + slot.qos.period;
            slot.chain = d;
            d
        } else {
            0
        };
        if was_empty {
            slot.head_deadline = match self.cfg.anchor {
                // Service chain: one period past the chain anchor,
                // re-anchored to `now` after an idle gap so a paused
                // stream does not resume permanently late.
                DeadlineAnchor::ServiceChain => slot.chain.max(now) + slot.qos.period,
                DeadlineAnchor::ArrivalGrid => grid_deadline,
            };
        }
        // analysis: allow(ni-no-alloc) reason="per-stream ring reuses its buffer once warm; growth only during admission ramp"
        slot.queue.push_back(QueuedFrame {
            desc: FrameDesc {
                enqueued_at: now,
                ..desc
            },
            arrival,
            grid_deadline,
        });
        slot.stats.note_enqueue();
        debug_assert!(conserved(slot), "stream {sid}: queue and account disagree");
        self.queued_frames += 1;
        if was_empty {
            if let Some(key) = head_key(slot) {
                self.repr.update(sid, key);
            }
        }
    }

    /// Make one scheduling decision at time `now`; the returned frame is
    /// accounted as transmitted now. Frames dropped on the way are counted
    /// in [`SchedDecision::dropped`] and otherwise discarded; see
    /// [`DwcsScheduler::schedule_next_with`].
    pub fn schedule_next(&mut self, now: Time) -> SchedDecision {
        self.schedule_next_with(now, |_| {})
    }

    /// [`DwcsScheduler::schedule_next`], handing each frame dropped while
    /// reaching the decision to `on_drop`, in drop order. Nothing is kept
    /// for later: a caller that needs the descriptors takes them here.
    ///
    /// The decision's frame is accounted as sent now.
    pub fn schedule_next_with(&mut self, now: Time, mut on_drop: impl FnMut(FrameDesc)) -> SchedDecision {
        let decision = self.decide_core(now, &mut on_drop);
        if let Some(f) = decision.frame {
            self.account_dispatch(f, now);
        }
        decision
    }

    /// Core decision: pick, drop-late-if-lossy, adjust windows. Dropped
    /// descriptors go to `on_drop` in drop order.
    fn decide_core(&mut self, now: Time, on_drop: &mut dyn FnMut(FrameDesc)) -> SchedDecision {
        let mut dropped = 0u32;
        let mut work = Work::default();

        // Every iteration either returns, skips one stale repr entry, or
        // drops one late frame. NI placements admit ≤ 16 streams (one live
        // repr entry each) and configure `max_drops_per_decision` ≤ 16 —
        // the knob that "keeps worst-case decision latency bounded on the
        // co-processor" — so the loop runs at most 32 times.
        // analysis: bound 32
        loop {
            let Some((sid, key)) = self.repr.pop_min() else {
                work.add(self.repr.take_work());
                return SchedDecision {
                    frame: None,
                    dropped,
                    work,
                };
            };
            let slot = &mut self.streams[sid.index()];
            let Some(qf) = slot.queue.pop_front() else {
                // A repr entry with no queued head would be an index/queue
                // desync; skip the stale entry rather than dying mid-stream
                // — the stream re-indexes on its next enqueue.
                continue;
            };
            self.queued_frames -= 1;
            debug_assert_eq!(qf.arrival, key.arrival, "repr key tracks queue head");

            let deadline = slot.head_deadline;
            if self.cfg.pacing == Pacing::DeadlinePaced && deadline > now {
                // The precedence-minimal packet is not yet eligible; since
                // the order is deadline-major, nothing else is either.
                // analysis: allow(ni-no-alloc) reason="returns the frame just popped to the same queue; its slot is still free"
                slot.queue.push_front(qf);
                self.queued_frames += 1;
                self.repr.update(sid, key);
                work.add(self.repr.take_work());
                return SchedDecision {
                    frame: None,
                    dropped,
                    work,
                };
            }

            // Expose the successor's deadline.
            match self.cfg.anchor {
                DeadlineAnchor::ServiceChain => {
                    // Service (or drop) commences now: the chain advances
                    // from whichever is later.
                    slot.chain = deadline.max(now);
                    if slot.queue.front().is_some() {
                        slot.head_deadline = slot.chain + slot.qos.period;
                    }
                }
                DeadlineAnchor::ArrivalGrid => {
                    if let Some(next) = slot.queue.front() {
                        slot.head_deadline = next.grid_deadline;
                    }
                }
            }

            let late = deadline.saturating_add(self.cfg.late_grace) < now;
            let frame = if late {
                let outcome = slot.window.on_miss();
                if outcome == MissOutcome::Violation {
                    slot.stats.note_violation();
                }
                // A late packet is dropped only when the stream is lossy
                // AND the miss fit inside the loss budget ("at most x
                // packets can miss their deadlines and be either dropped
                // or transmitted late, depending on whether or not the
                // attribute-based QoS for the stream allows some packets
                // to be lost"). A budget-exhausted miss is a violation:
                // the packet still goes out, late.
                let drop_it = slot.qos.policy == LossPolicy::Droppable && outcome == MissOutcome::Tolerated;
                if drop_it {
                    slot.stats.note_dropped();
                    debug_assert!(conserved(slot), "stream {sid}: queue and account disagree");
                    on_drop(qf.desc);
                    dropped += 1;
                    // Re-index this stream's new head and retry unless
                    // the per-decision drop budget is exhausted.
                    if let Some(k) = head_key(slot) {
                        self.repr.update(sid, k);
                    }
                    if dropped >= self.cfg.max_drops_per_decision {
                        work.add(self.repr.take_work());
                        return SchedDecision {
                            frame: None,
                            dropped,
                            work,
                        };
                    }
                    continue;
                }
                Some(DispatchedFrame {
                    desc: qf.desc,
                    deadline,
                    on_time: false,
                })
            } else {
                slot.window.on_timely_service();
                Some(DispatchedFrame {
                    desc: qf.desc,
                    deadline,
                    on_time: true,
                })
            };

            if let Some(k) = head_key(slot) {
                self.repr.update(sid, k);
            }
            work.add(self.repr.take_work());
            return SchedDecision { frame, dropped, work };
        }
    }

    fn account_dispatch(&mut self, f: DispatchedFrame, now: Time) {
        let slot = &mut self.streams[f.desc.stream.index()];
        let delay = now.saturating_sub(f.desc.enqueued_at);
        slot.stats.note_sent(now, f.desc.len, delay, f.on_time);
        debug_assert!(conserved(slot), "stream {}: queue and account disagree", f.desc.stream);
    }

    /// Per-stream statistics.
    pub fn stats(&self, sid: StreamId) -> &StreamAccount {
        &self.streams[sid.index()].stats
    }

    /// Current window state of a stream.
    pub fn window(&self, sid: StreamId) -> &Window {
        &self.streams[sid.index()].window
    }

    /// QoS a stream was admitted with.
    pub fn qos(&self, sid: StreamId) -> &StreamQos {
        &self.streams[sid.index()].qos
    }

    /// Frames queued for a stream.
    pub fn backlog(&self, sid: StreamId) -> usize {
        self.streams[sid.index()].queue.len()
    }

    /// Frames queued across all active streams (co-processor cost models
    /// scale decision time with this). O(1): maintained incrementally at
    /// every queue mutation; the debug build cross-checks the counter
    /// against a full scan.
    pub fn total_backlog(&self) -> u64 {
        debug_assert_eq!(
            self.queued_frames,
            self.streams
                .iter()
                .filter(|s| s.active)
                .map(|s| s.queue.len() as u64)
                .sum::<u64>(),
            "incremental backlog counter out of sync with the queues"
        );
        self.queued_frames
    }

    /// Whether any stream has queued frames.
    pub fn has_pending(&self) -> bool {
        self.streams.iter().any(|s| s.active && !s.queue.is_empty())
    }

    /// Deadline of a stream's head packet.
    pub fn head_deadline(&self, sid: StreamId) -> Option<Time> {
        let slot = &self.streams[sid.index()];
        (!slot.queue.is_empty()).then_some(slot.head_deadline)
    }

    /// Earliest deadline among all head packets — when the next packet
    /// becomes eligible under [`Pacing::DeadlinePaced`] (event-driven
    /// embeddings sleep until then).
    pub fn next_eligible(&mut self) -> Option<Time> {
        self.repr.peek_min().map(|(_, k)| k.deadline)
    }

    /// Access the representation (e.g. `DualHeap::physical_len`).
    pub fn repr_mut(&mut self) -> &mut R {
        &mut self.repr
    }

    /// Ids of all active streams.
    pub fn stream_ids(&self) -> impl Iterator<Item = StreamId> + '_ {
        self.streams
            .iter()
            .enumerate()
            .filter(|(_, s)| s.active)
            .map(|(i, _)| StreamId(i as u32))
    }
}

fn head_key(slot: &StreamSlot) -> Option<HeadKey> {
    slot.queue.front().map(|qf| HeadKey {
        deadline: slot.head_deadline,
        x: slot.window.x(),
        y: slot.window.y(),
        arrival: qf.arrival,
    })
}

/// Per-stream frame conservation (checked after every queue mutation in
/// debug builds): the queue holds exactly what the account has queued.
fn conserved(slot: &StreamSlot) -> bool {
    slot.queue.len() as u64 == slot.stats.queued()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repr::{DualHeap, LinearScan};
    use crate::types::{FrameKind, MILLISECOND};

    fn frame(sid: u32, seq: u64) -> FrameDesc {
        FrameDesc::new(StreamId(sid), seq, 1000, FrameKind::P)
    }

    fn sched() -> DwcsScheduler<LinearScan> {
        DwcsScheduler::new(LinearScan::new(8))
    }

    #[test]
    fn single_stream_fifo_dispatch() {
        let mut s = sched();
        let sid = s.add_stream(StreamQos::new(10 * MILLISECOND, 1, 2));
        for seq in 0..3 {
            s.enqueue(sid, frame(0, seq), 0);
        }
        for seq in 0..3 {
            let d = s.schedule_next(1);
            let f = d.frame.expect("frame available");
            assert_eq!(f.desc.seq, seq);
            assert!(f.on_time);
        }
        assert!(s.schedule_next(1).frame.is_none());
        assert_eq!(s.stats(sid).sent_on_time, 3);
    }

    #[test]
    fn deadlines_are_period_spaced() {
        let mut s = sched();
        let sid = s.add_stream(StreamQos::new(5 * MILLISECOND, 0, 1));
        s.enqueue(sid, frame(0, 0), 0);
        s.enqueue(sid, frame(0, 1), 0);
        s.enqueue(sid, frame(0, 2), 0);
        assert_eq!(s.head_deadline(sid), Some(5 * MILLISECOND));
        let _ = s.schedule_next(0);
        assert_eq!(s.head_deadline(sid), Some(10 * MILLISECOND));
        let _ = s.schedule_next(0);
        assert_eq!(s.head_deadline(sid), Some(15 * MILLISECOND));
    }

    #[test]
    fn idle_stream_reanchors_deadline_chain() {
        let mut s = sched();
        let sid = s.add_stream(StreamQos::new(5 * MILLISECOND, 0, 1));
        s.enqueue(sid, frame(0, 0), 0);
        let _ = s.schedule_next(0);
        // Long pause, then resume: deadline = now + T, not 10 ms.
        let now = 1_000 * MILLISECOND;
        s.enqueue(sid, frame(0, 1), now);
        assert_eq!(s.head_deadline(sid), Some(now + 5 * MILLISECOND));
    }

    #[test]
    fn earliest_deadline_stream_wins() {
        let mut s = sched();
        let slow = s.add_stream(StreamQos::new(100 * MILLISECOND, 1, 2));
        let fast = s.add_stream(StreamQos::new(10 * MILLISECOND, 1, 2));
        s.enqueue(slow, frame(0, 0), 0);
        s.enqueue(fast, frame(1, 0), 0);
        let f = s.schedule_next(0).frame.unwrap();
        assert_eq!(f.desc.stream, fast);
    }

    #[test]
    fn late_droppable_head_is_shed_and_chain_reanchors() {
        let mut s = sched();
        // Tolerance 1/2: one of every two packets may be lost.
        let sid = s.add_stream(StreamQos::new(MILLISECOND, 1, 2));
        for seq in 0..3 {
            s.enqueue(sid, frame(0, seq), 0);
        }
        // Far future: the head's deadline (1 ms) has passed → dropped
        // within budget; the successor's deadline re-anchors to now + T
        // (service-spacing semantics), so it transmits on time.
        let d = s.schedule_next(100 * MILLISECOND);
        assert_eq!(d.dropped, 1);
        let f = d.frame.expect("re-anchored successor transmits");
        assert!(f.on_time);
        assert_eq!(f.desc.seq, 1);
        assert_eq!(f.deadline, 101 * MILLISECOND);
        assert_eq!(s.stats(sid).dropped, 1);
        assert_eq!(s.stats(sid).sent_on_time, 1);
    }

    #[test]
    fn late_sendlate_frames_still_dispatch() {
        let mut s = sched();
        let sid = s.add_stream(StreamQos::new(MILLISECOND, 1, 2).send_late());
        s.enqueue(sid, frame(0, 0), 0);
        let d = s.schedule_next(100 * MILLISECOND);
        let f = d.frame.expect("late frame transmitted");
        assert!(!f.on_time);
        assert_eq!(d.dropped, 0);
        assert_eq!(s.stats(sid).sent_late, 1);
    }

    #[test]
    fn zero_tolerance_streams_never_drop_only_violate() {
        let mut s = sched();
        // Zero loss tolerance: a miss is a violation and the frame is
        // still transmitted, late.
        let sid = s.add_stream(StreamQos::new(MILLISECOND, 0, 4));
        for seq in 0..3 {
            s.enqueue(sid, frame(0, seq), 0);
        }
        let d = s.schedule_next(1_000 * MILLISECOND);
        let f = d.frame.expect("violating frame still transmits");
        assert_eq!(f.desc.seq, 0);
        assert!(!f.on_time);
        assert_eq!(d.dropped, 0);
        assert_eq!(s.stats(sid).violations, 1);
        assert_eq!(s.stats(sid).sent_late, 1);
        // Successors re-anchor and go out clean.
        for expect_seq in 1..3 {
            let f = s.schedule_next(1_000 * MILLISECOND).frame.unwrap();
            assert_eq!(f.desc.seq, expect_seq);
            assert!(f.on_time);
        }
        assert_eq!(s.stats(sid).dropped, 0);
    }

    #[test]
    fn window_state_drives_priority() {
        let mut s = sched();
        // Two streams, same period; a has no loss budget left after misses.
        let a = s.add_stream(StreamQos::new(10 * MILLISECOND, 1, 4));
        let b = s.add_stream(StreamQos::new(10 * MILLISECOND, 3, 4));
        // Enqueue one frame each at t=0 (same deadline, arrival a first).
        s.enqueue(a, frame(0, 0), 0);
        s.enqueue(b, frame(1, 0), 0);
        // W'(a)=1/4 < W'(b)=3/4 → a wins the deadline tie.
        let f = s.schedule_next(0).frame.unwrap();
        assert_eq!(f.desc.stream, a);
    }

    #[test]
    fn deadline_pacing_withholds_early_frames() {
        let cfg = SchedulerConfig {
            pacing: Pacing::DeadlinePaced,
            ..SchedulerConfig::default()
        };
        let mut s = DwcsScheduler::with_config(LinearScan::new(4), cfg);
        let sid = s.add_stream(StreamQos::new(10 * MILLISECOND, 1, 2));
        for seq in 0..3 {
            s.enqueue(sid, frame(0, seq), 0);
        }
        // Nothing eligible before the first deadline.
        assert!(s.schedule_next(5 * MILLISECOND).frame.is_none());
        assert_eq!(s.next_eligible(), Some(10 * MILLISECOND));
        // Exactly at the deadline: one frame, on time.
        let f = s.schedule_next(10 * MILLISECOND).frame.expect("eligible now");
        assert_eq!(f.desc.seq, 0);
        assert!(f.on_time);
        // The next frame's deadline is 20 ms; 15 ms yields nothing.
        assert!(s.schedule_next(15 * MILLISECOND).frame.is_none());
        let f = s.schedule_next(20 * MILLISECOND).frame.unwrap();
        assert_eq!(f.desc.seq, 1);
    }

    #[test]
    fn deadline_pacing_yields_stream_rate_bandwidth() {
        // Pre-load a whole "file" and verify dispatch spacing equals T.
        let cfg = SchedulerConfig {
            pacing: Pacing::DeadlinePaced,
            ..SchedulerConfig::default()
        };
        let mut s = DwcsScheduler::with_config(LinearScan::new(4), cfg);
        let period = 33 * MILLISECOND;
        let sid = s.add_stream(StreamQos::new(period, 2, 8));
        for seq in 0..30 {
            s.enqueue(sid, frame(0, seq), 0);
        }
        let mut sent_times = Vec::new();
        let mut now = 0;
        while s.has_pending() {
            now = s.next_eligible().expect("pending frames have deadlines");
            let d = s.schedule_next(now);
            if let Some(f) = d.frame {
                sent_times.push((f.desc.seq, now));
            }
        }
        assert_eq!(sent_times.len(), 30);
        for w in sent_times.windows(2) {
            assert_eq!(w[1].1 - w[0].1, period, "dispatches exactly T apart");
        }
        // Queuing delay grows linearly: frame k waited k·T.
        assert_eq!(s.stats(sid).queue_delay_max, 30 * period);
        let _ = now;
    }

    #[test]
    fn arrival_grid_keeps_backlog_late() {
        let cfg = SchedulerConfig {
            anchor: DeadlineAnchor::ArrivalGrid,
            ..SchedulerConfig::default()
        };
        let mut s = DwcsScheduler::with_config(LinearScan::new(4), cfg);
        let sid = s.add_stream(StreamQos::new(10 * MILLISECOND, 4, 4));
        for seq in 0..5 {
            s.enqueue(sid, frame(0, seq), 0);
        }
        // Deadlines fixed at 10,20,30,40,50 ms. At t=100 ms ALL are late:
        // the grid does not re-anchor after the first drop.
        let d = s.schedule_next(100 * MILLISECOND);
        assert!(d.frame.is_none());
        assert_eq!(d.dropped, 5, "whole backlog counted late under the grid");
    }

    #[test]
    fn service_chain_reanchors_after_first_miss() {
        // Contrast case: same scenario under the default chain — only the
        // head is late; successors re-anchor to now + T.
        let mut s = sched();
        let sid = s.add_stream(StreamQos::new(10 * MILLISECOND, 4, 4));
        for seq in 0..5 {
            s.enqueue(sid, frame(0, seq), 0);
        }
        let d = s.schedule_next(100 * MILLISECOND);
        assert_eq!(d.dropped, 1);
        let f = d.frame.expect("re-anchored successor sends");
        assert!(f.on_time);
        assert_eq!(f.deadline, 110 * MILLISECOND);
    }

    #[test]
    fn anchors_agree_while_on_time() {
        // Served exactly at each deadline, the two anchorings produce the
        // same schedule.
        let run = |anchor: DeadlineAnchor| -> Vec<Time> {
            let cfg = SchedulerConfig {
                anchor,
                pacing: Pacing::DeadlinePaced,
                ..SchedulerConfig::default()
            };
            let mut s = DwcsScheduler::with_config(LinearScan::new(2), cfg);
            let sid = s.add_stream(StreamQos::new(7 * MILLISECOND, 1, 4));
            for seq in 0..10 {
                s.enqueue(sid, frame(0, seq), 0);
            }
            let mut times = Vec::new();
            while s.has_pending() {
                let t = s.next_eligible().unwrap();
                if s.schedule_next(t).frame.is_some() {
                    times.push(t);
                }
            }
            times
        };
        assert_eq!(run(DeadlineAnchor::ServiceChain), run(DeadlineAnchor::ArrivalGrid));
    }

    /// The O(1) backlog counter must agree with a queue scan through
    /// every mutation class: enqueue, paced put-back, drop, dispatch,
    /// and stream removal with a live backlog. (The debug build's
    /// `total_backlog` cross-check fires on any drift; this test walks
    /// all the paths.)
    #[test]
    fn incremental_backlog_survives_every_queue_mutation() {
        let cfg = SchedulerConfig {
            pacing: Pacing::DeadlinePaced,
            ..SchedulerConfig::default()
        };
        let mut s = DwcsScheduler::with_config(LinearScan::new(8), cfg);
        let a = s.add_stream(StreamQos::new(10 * MILLISECOND, 4, 4));
        let b = s.add_stream(StreamQos::new(3 * MILLISECOND, 0, 1));
        for seq in 0..4 {
            s.enqueue(a, frame(0, seq), 0);
            s.enqueue(b, frame(1, seq), 0);
        }
        assert_eq!(s.total_backlog(), 8);
        // Paced put-back: nothing eligible yet, count unchanged.
        assert!(s.schedule_next(MILLISECOND).frame.is_none());
        assert_eq!(s.total_backlog(), 8);
        // Dispatch one eligible frame.
        assert!(s.schedule_next(3 * MILLISECOND).frame.is_some());
        assert_eq!(s.total_backlog(), 7);
        // Late heads: droppable stream `a` sheds frames, strict stream
        // `b` sends late; every pass must satisfy the accounting
        // identity backlog' = backlog - dropped - dispatched.
        let mut dropped_total = 0;
        let mut t = SECOND;
        while s.has_pending() {
            let before = s.total_backlog();
            let d = s.schedule_next(t);
            dropped_total += d.dropped;
            assert_eq!(
                s.total_backlog(),
                before - u64::from(d.dropped) - u64::from(d.frame.is_some() as u8)
            );
            t += SECOND;
        }
        assert!(dropped_total >= 1, "droppable stream never shed a frame");
        assert_eq!(s.total_backlog(), 0);
        // Removal returns a live queue's frames to the count.
        for seq in 0..3 {
            s.enqueue(a, frame(0, 4 + seq), t);
        }
        assert_eq!(s.total_backlog(), 3);
        s.remove_stream(a);
        assert_eq!(s.total_backlog(), 0);
        let _ = b;
    }

    #[test]
    fn stream_removal_frees_slot() {
        let mut s = sched();
        let a = s.add_stream(StreamQos::new(MILLISECOND, 1, 2));
        s.enqueue(a, frame(0, 0), 0);
        s.remove_stream(a);
        assert_eq!(s.stream_count(), 0);
        assert!(s.schedule_next(0).frame.is_none());
        let b = s.add_stream(StreamQos::new(MILLISECOND, 1, 2));
        assert_eq!(b, a, "slot reused");
    }

    /// A backlog moved out of a stream stays queued in its account; one
    /// discarded by a close counts as dropped.
    #[test]
    fn moved_backlog_stays_queued_and_a_closed_one_is_dropped() {
        let mut s = sched();
        let a = s.add_stream(StreamQos::new(MILLISECOND, 1, 2));
        let b = s.add_stream(StreamQos::new(MILLISECOND, 1, 2));
        for seq in 0..3 {
            s.enqueue(a, frame(0, seq), 0);
            s.enqueue(b, frame(1, seq), 0);
        }
        let mut moved = Vec::new();
        s.remove_stream_with(a, |d| moved.push(d.seq));
        s.remove_stream(b);
        assert_eq!(moved, [0, 1, 2]);
        assert_eq!((s.stats(a).dropped, s.stats(a).queued()), (0, 3));
        assert_eq!((s.stats(b).dropped, s.stats(b).queued()), (3, 0));
    }

    #[test]
    fn slot_reuse_matches_first_inactive_scan() {
        // A seeded open/close script: every id `add_stream` hands out must
        // be the one a scan for the first inactive slot would pick.
        let mut s = sched();
        let mut active: Vec<bool> = Vec::new();
        let mut open: Vec<StreamId> = Vec::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..4_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if open.is_empty() || x % 5 < 3 {
                let expect = active.iter().position(|a| !a).unwrap_or(active.len());
                let sid = s.add_stream(StreamQos::new(MILLISECOND, 1, 2));
                assert_eq!(sid.index(), expect, "lowest free slot");
                if expect == active.len() {
                    active.push(true);
                } else {
                    active[expect] = true;
                }
                open.push(sid);
            } else {
                let sid = open.swap_remove((x >> 8) as usize % open.len());
                s.remove_stream(sid);
                active[sid.index()] = false;
            }
            assert_eq!(s.stream_count(), open.len());
        }
    }

    #[test]
    fn drop_budget_bounds_decision() {
        let cfg = SchedulerConfig {
            max_drops_per_decision: 2,
            ..SchedulerConfig::default()
        };
        let mut s = DwcsScheduler::with_config(LinearScan::new(8), cfg);
        // Five lossy streams, each with one long-expired head.
        let sids: Vec<_> = (0..5)
            .map(|_| s.add_stream(StreamQos::new(MILLISECOND, 4, 4)))
            .collect();
        for (i, &sid) in sids.iter().enumerate() {
            s.enqueue(sid, frame(i as u32, 0), 0);
        }
        let d = s.schedule_next(SECOND);
        assert!(d.frame.is_none());
        assert_eq!(d.dropped, 2, "budget respected");
        let backlog: usize = sids.iter().map(|&sid| s.backlog(sid)).sum();
        assert_eq!(backlog, 3);
    }

    #[test]
    fn works_identically_on_dual_heap() {
        let mut lin = DwcsScheduler::new(LinearScan::new(8));
        let mut heap = DwcsScheduler::new(DualHeap::new(8));
        let qos = [
            StreamQos::new(10 * MILLISECOND, 1, 3),
            StreamQos::new(7 * MILLISECOND, 0, 2),
            StreamQos::new(13 * MILLISECOND, 2, 4),
        ];
        let ids_l: Vec<_> = qos.iter().map(|q| lin.add_stream(*q)).collect();
        let ids_h: Vec<_> = qos.iter().map(|q| heap.add_stream(*q)).collect();
        for seq in 0..20u64 {
            for (i, (&l, &h)) in ids_l.iter().zip(&ids_h).enumerate() {
                let t = seq * MILLISECOND;
                lin.enqueue(l, frame(i as u32, seq), t);
                heap.enqueue(h, frame(i as u32, seq), t);
            }
        }
        let mut t = 0;
        loop {
            let a = lin.schedule_next(t);
            let b = heap.schedule_next(t);
            assert_eq!(
                a.frame.map(|f| (f.desc.stream, f.desc.seq)),
                b.frame.map(|f| (f.desc.stream, f.desc.seq))
            );
            if a.frame.is_none() && !lin.has_pending() {
                break;
            }
            t += 2 * MILLISECOND;
        }
    }

    use crate::types::SECOND;
}
