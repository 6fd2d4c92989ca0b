//! The placement-agnostic scheduler **service core**.
//!
//! The paper's central architectural claim (§3) is that the *same* DWCS
//! scheduler module runs unchanged wherever it is placed — in a host
//! process, or on the NI co-processor as a DVCM run-time extension. This
//! module makes the repository embody that claim: [`SchedService`] owns
//! the complete service loop — ingest descriptors, pace by deadline,
//! decide, resolve drops versus late sends, update window/violation
//! state, emit [`DispatchRecord`]s, trace — and every placement supplies
//! only its environment through a small [`Platform`] trait (a clock,
//! decision pricing, a dispatch sink, a drop reclaimer).
//!
//! There is one pass body, [`SchedService::service_once`];
//! [`SchedService::service_batch`] runs it up to `budget` times. The core
//! also owns the run's one trace ring ([`SchedService::set_trace`]), so
//! whether a run is traced is decided in one place for every placement.
//!
//! Three placements bind to this core:
//!
//! * the real threaded engine (`nistream-core::engine`) — wall clock,
//!   frame-pool payload resolution, pluggable frame sinks;
//! * the DVCM media-scheduler extension (`dvcm::media_sched`) — NI time,
//!   an outbox the embedding drains onto the wire;
//! * the simulation worlds (`serversim::hostload` on the host CPU,
//!   `serversim::chassis` on each NI card, which `serversim::niload` runs
//!   as one card) — simulated time, cost-model pricing per decision and
//!   per dispatch.
//!
//! Like the rest of this crate the core is NI-resident code: no floating
//! point, no panicking constructs, and fully deterministic given its
//! inputs (enforced by `nistream-analysis`).

use crate::qos::StreamQos;
use crate::repr::{ScheduleRepr, Work};
use crate::scheduler::{DispatchedFrame, DwcsScheduler, SchedDecision, SchedulerConfig};
use crate::types::{FrameDesc, StreamId, Time};
use nistream_trace::{TraceCapture, TraceEvent, TraceRing};

/// One dispatched frame with its decision metadata.
///
/// This is the unit every placement's dispatch path receives — the NI
/// extension queues them in an outbox, the threaded engine resolves the
/// descriptor to a pooled payload, the simulators price wire occupancy.
#[derive(Clone, Copy, Debug)]
pub struct DispatchRecord {
    /// The dispatched frame.
    pub frame: DispatchedFrame,
    /// Service-core time of the scheduling decision.
    pub decided_at: Time,
}

/// What one [`SchedService::service_batch`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchSummary {
    /// Service passes executed (≤ the requested budget; the batch stops
    /// early at the first pass that makes no progress).
    pub passes: u32,
    /// Frames handed to [`Platform::dispatch`].
    pub dispatched: u32,
    /// Late frames dropped across all passes.
    pub dropped: u32,
    /// Data-structure work summed across all passes.
    pub work: Work,
}

/// The environment a scheduler placement supplies to the service core.
///
/// Each placement provides exactly the pieces its environment owns:
///
/// | method | host engine (`nistream-core`) | NI extension (`dvcm`) | serversim worlds |
/// |---|---|---|---|
/// | [`now`](Platform::now) | wall clock since server epoch (or a virtual clock in tests) | NI time latched from the VCM instruction / poll | simulated time set by the world before each pass |
/// | [`set_now`](Platform::set_now) | ignored (wall clock) or sets the virtual clock | latches poll time | advances the world clock |
/// | [`on_decision`](Platform::on_decision) | unused (real time passes by itself) | unused (the embedding prices) | prices the decision on the `hwsim` CPU model and advances time |
/// | [`dispatch`](Platform::dispatch) | resolve descriptor in the `FramePool`, deliver to the `FrameSink` | push a [`DispatchRecord`] into the outbox | price send/wire occupancy, record bandwidth and queuing delay |
/// | [`reclaim`](Platform::reclaim) | release the frame's pool slot, notify the sink | log the descriptor for the host to reclaim | account the dropped frame (payloads are synthetic) |
///
/// Default implementations make every method except [`now`](Platform::now)
/// and [`dispatch`](Platform::dispatch) optional.
pub trait Platform {
    /// Current time on this placement's clock, in nanoseconds.
    fn now(&mut self) -> Time;

    /// Move a settable clock to `t`. Placements with an autonomous clock
    /// (the threaded engine's wall clock) ignore this.
    fn set_now(&mut self, t: Time) {
        let _ = t;
    }

    /// Observe one completed decision pass before any dispatch is
    /// delivered: `decision` carries the representation work counts and
    /// `backlog` the total frames still queued across active streams.
    /// Simulated placements price the decision here and advance their
    /// clock; real placements let time pass by itself.
    fn on_decision(&mut self, decision: &SchedDecision, backlog: u64) {
        let _ = (decision, backlog);
    }

    /// Deliver one dispatched frame to this placement's transport.
    fn dispatch(&mut self, rec: &DispatchRecord);

    /// Reclaim the resources of a frame the scheduler dropped (late,
    /// within loss budget) or discarded (stream close). The threaded
    /// engine releases the payload's pool slot here — "a single copy of
    /// frames in NI memory" requires every descriptor's slot to be
    /// returned exactly once.
    fn reclaim(&mut self, desc: &FrameDesc) {
        let _ = desc;
    }
}

/// The scheduler service core: a [`DwcsScheduler`] plus the [`Platform`]
/// it is placed on, owning the decide → reclaim → dispatch loop that was
/// historically re-implemented by every embedding.
///
/// # Reclaim ordering
///
/// Within one service pass the order is fixed (DESIGN.md §8): frames
/// dropped while reaching a decision are reclaimed **before** the
/// surviving frame's dispatch is delivered. A dropped frame's pool slot
/// is therefore free by the time the dispatch path runs — on the memory-
/// constrained NI the reclaimed slot may be the one the very next
/// producer burst needs. `tests/` pins this with a regression test.
///
/// # Tracing
///
/// The core emits the trace centrally into its own ring, so every
/// placement produces the identical stream for the same schedule: per
/// pass `Drop*`, then `Decision`, then at most one `Dispatch`, then
/// `QueueDepth`, all stamped with the pass-start clock — placement cost
/// models advance time *after* the decision, so the stamps are
/// placement-invariant. Without a ring ([`SchedService::set_trace`] with
/// capacity 0, the default) nothing is emitted.
pub struct SchedService<R, P> {
    sched: DwcsScheduler<R>,
    platform: P,
    /// The NI-resident trace ring events are pushed into, if any.
    trace: Option<TraceRing>,
}

impl<R: ScheduleRepr, P: Platform> SchedService<R, P> {
    /// Build an untraced service core over `repr` with `cfg`, placed on
    /// `platform`.
    pub fn new(repr: R, cfg: SchedulerConfig, platform: P) -> SchedService<R, P> {
        SchedService {
            sched: DwcsScheduler::with_config(repr, cfg),
            platform,
            trace: None,
        }
    }

    /// Attach a trace ring of `capacity` events (0 removes tracing).
    pub fn set_trace(&mut self, capacity: usize) {
        self.trace = (capacity > 0).then(|| TraceRing::with_capacity(capacity));
    }

    /// Drain the trace ring (empty capture when tracing is off).
    pub fn drain_trace(&mut self) -> TraceCapture {
        self.trace.as_mut().map(TraceCapture::from_ring).unwrap_or_default()
    }

    /// The trace ring, if tracing is on (embeddings push their own
    /// events, such as a rejected admission, into the same stream).
    pub fn tracer(&mut self) -> Option<&mut TraceRing> {
        self.trace.as_mut()
    }

    /// Admit a stream (traced as an `Admit` event).
    pub fn open(&mut self, qos: StreamQos) -> StreamId {
        let at = if self.trace.is_some() { self.platform.now() } else { 0 };
        let sid = self.sched.add_stream(qos);
        if let Some(ring) = self.trace.as_mut() {
            ring.push(TraceEvent::Admit {
                at,
                stream: sid.0,
                period: qos.period,
                loss_num: qos.loss_num,
                loss_den: qos.loss_den,
            });
        }
        sid
    }

    /// Close a stream: its backlog is routed through
    /// [`Platform::reclaim`] (slot-per-descriptor accounting survives a
    /// mid-stream close), then the stream is deregistered. Each
    /// discarded frame is traced as a `Drop` and counted as one in the
    /// stream's account, so the account and the trace fold agree.
    pub fn close(&mut self, sid: StreamId) {
        let at = if self.trace.is_some() { self.platform.now() } else { 0 };
        let (platform, trace) = (&mut self.platform, &mut self.trace);
        self.sched.close_stream_with(sid, |desc| {
            if let Some(ring) = trace.as_mut() {
                ring.push(TraceEvent::Drop {
                    at,
                    stream: desc.stream.0,
                    seq: desc.seq,
                });
            }
            platform.reclaim(&desc);
        });
    }

    /// Ingest one frame descriptor at the platform's current time.
    pub fn ingest(&mut self, sid: StreamId, desc: FrameDesc) {
        let now = self.platform.now();
        self.sched.enqueue(sid, desc, now);
    }

    /// Ingest one frame descriptor at an explicit time (simulated
    /// placements timestamp sub-slice arrivals).
    pub fn ingest_at(&mut self, sid: StreamId, desc: FrameDesc, now: Time) {
        self.sched.enqueue(sid, desc, now);
    }

    /// One service pass — the only one; every placement runs it:
    ///
    /// 1. read the platform clock once;
    /// 2. make one scheduling decision; each frame dropped reaching it is
    ///    traced, then [reclaimed](Platform::reclaim), before any
    ///    dispatch (see the type-level docs);
    /// 3. trace the `Decision`, then report it to
    ///    [`Platform::on_decision`];
    /// 4. trace the decision's frame, if any, as a `Dispatch`, then deliver
    ///    it through [`Platform::dispatch`];
    /// 5. trace the remaining `QueueDepth`.
    ///
    /// The scheduler has already accounted the pass's drops and dispatch
    /// in the streams' accounts (`DwcsScheduler::stats`) at the same
    /// clock; the trace narrates the same updates, so a host fold of the
    /// ring rebuilds those accounts (`nistream_trace::Aggregate`).
    ///
    /// Every event is stamped with the clock read in step 1.
    // analysis: hot
    pub fn service_once(&mut self) -> SchedDecision {
        let now = self.platform.now();
        let (platform, trace) = (&mut self.platform, &mut self.trace);
        let decision = self.sched.schedule_next_with(now, |desc| {
            if let Some(ring) = trace.as_mut() {
                ring.push(TraceEvent::Drop {
                    at: now,
                    stream: desc.stream.0,
                    seq: desc.seq,
                });
            }
            platform.reclaim(&desc);
        });
        let backlog = self.sched.total_backlog();
        if let Some(ring) = self.trace.as_mut() {
            ring.push(TraceEvent::Decision {
                at: now,
                stream: decision.frame.map(|f| f.desc.stream.0),
                dropped: decision.dropped,
                backlog,
                compares: decision.work.compares,
                touches: decision.work.touches,
            });
        }
        self.platform.on_decision(&decision, backlog);
        if let Some(frame) = decision.frame {
            if let Some(ring) = self.trace.as_mut() {
                ring.push(TraceEvent::Dispatch {
                    at: now,
                    stream: frame.desc.stream.0,
                    seq: frame.desc.seq,
                    len: frame.desc.len,
                    deadline: frame.deadline,
                    on_time: frame.on_time,
                });
            }
            self.platform.dispatch(&DispatchRecord { frame, decided_at: now });
        }
        if let Some(ring) = self.trace.as_mut() {
            ring.push(TraceEvent::QueueDepth {
                at: now,
                depth: backlog,
            });
        }
        decision
    }

    /// Run up to `budget` service passes in one sweep: exactly `budget`
    /// calls to [`SchedService::service_once`], except that the sweep
    /// stops at the first pass that makes no progress (nothing decided,
    /// dropped, or dispatched); with a non-advancing clock the remaining
    /// passes would all be idle.
    // analysis: hot
    pub fn service_batch(&mut self, budget: u32) -> BatchSummary {
        let mut summary = BatchSummary::default();
        // analysis: allow(ni-cycle-budget) reason="budget-bounded sweep of service_once; NI placements call it at ChassisConfig::batch_budget = 1"
        for _ in 0..budget {
            let decision = self.service_once();
            summary.passes += 1;
            summary.dropped += decision.dropped;
            summary.dispatched += u32::from(decision.frame.is_some());
            summary.work.add(decision.work);
            if decision.frame.is_none() && decision.dropped == 0 {
                break;
            }
        }
        summary
    }

    /// When the next queued frame becomes eligible (deadline-paced
    /// embeddings sleep until then).
    pub fn next_eligible(&mut self) -> Option<Time> {
        self.sched.next_eligible()
    }

    /// Whether any stream holds queued frames.
    pub fn has_pending(&self) -> bool {
        self.sched.has_pending()
    }

    /// The underlying scheduler (stats, windows, QoS).
    pub fn scheduler(&self) -> &DwcsScheduler<R> {
        &self.sched
    }

    /// Mutable scheduler access (representation experiments).
    pub fn scheduler_mut(&mut self) -> &mut DwcsScheduler<R> {
        &mut self.sched
    }

    /// The platform this core is placed on.
    pub fn platform(&self) -> &P {
        &self.platform
    }

    /// Mutable platform access (simulated placements set time, drain
    /// series).
    pub fn platform_mut(&mut self) -> &mut P {
        &mut self.platform
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repr::LinearScan;
    use crate::scheduler::Pacing;
    use crate::types::{FrameKind, MILLISECOND};

    /// Test platform: settable clock, event log distinguishing reclaims
    /// from dispatches in arrival order.
    #[derive(Default)]
    struct Probe {
        now: Time,
        events: Vec<Event>,
    }

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Event {
        Reclaimed { stream: u32, seq: u64 },
        Dispatched { stream: u32, seq: u64, on_time: bool },
        Decision { dropped: u32, backlog: u64 },
    }

    impl Platform for Probe {
        fn now(&mut self) -> Time {
            self.now
        }
        fn set_now(&mut self, t: Time) {
            self.now = t;
        }
        fn on_decision(&mut self, d: &SchedDecision, backlog: u64) {
            self.events.push(Event::Decision {
                dropped: d.dropped,
                backlog,
            });
        }
        fn dispatch(&mut self, rec: &DispatchRecord) {
            self.events.push(Event::Dispatched {
                stream: rec.frame.desc.stream.0,
                seq: rec.frame.desc.seq,
                on_time: rec.frame.on_time,
            });
        }
        fn reclaim(&mut self, desc: &FrameDesc) {
            self.events.push(Event::Reclaimed {
                stream: desc.stream.0,
                seq: desc.seq,
            });
        }
    }

    fn svc(cfg: SchedulerConfig) -> SchedService<LinearScan, Probe> {
        SchedService::new(LinearScan::new(8), cfg, Probe::default())
    }

    fn frame(sid: StreamId, seq: u64) -> FrameDesc {
        FrameDesc::new(sid, seq, 1_000, FrameKind::P)
    }

    #[test]
    fn service_pass_dispatches_through_platform() {
        let mut s = svc(SchedulerConfig::default());
        let sid = s.open(StreamQos::new(10 * MILLISECOND, 1, 2));
        s.ingest_at(sid, frame(sid, 0), 0);
        s.platform_mut().now = MILLISECOND;
        assert!(s.service_once().frame.is_some());
        assert_eq!(
            s.platform().events,
            vec![
                Event::Decision { dropped: 0, backlog: 0 },
                Event::Dispatched {
                    stream: sid.0,
                    seq: 0,
                    on_time: true
                },
            ]
        );
    }

    /// Regression test for the reclaim-ordering drift the consolidation
    /// fixed: drops reaching a decision MUST be reclaimed before the
    /// surviving frame's dispatch is delivered (DESIGN.md §8). The old
    /// embeddings disagreed — the threaded engine reclaimed first, the
    /// DVCM extension and both simulators never reclaimed at all.
    #[test]
    fn drops_are_reclaimed_before_the_surviving_dispatch() {
        let mut s = svc(SchedulerConfig::default());
        // Tolerance 1/2: the first late head drops within budget.
        let sid = s.open(StreamQos::new(MILLISECOND, 1, 2));
        s.ingest_at(sid, frame(sid, 0), 0);
        s.ingest_at(sid, frame(sid, 1), 0);
        // Far past the first deadline: seq 0 drops, seq 1 re-anchors and
        // dispatches on time.
        s.platform_mut().now = 100 * MILLISECOND;
        let d = s.service_once();
        assert_eq!(d.dropped, 1);
        assert!(d.frame.is_some());
        assert_eq!(
            s.platform().events,
            vec![
                Event::Reclaimed { stream: sid.0, seq: 0 },
                Event::Decision { dropped: 1, backlog: 0 },
                Event::Dispatched {
                    stream: sid.0,
                    seq: 1,
                    on_time: true
                },
            ],
            "reclaim precedes dispatch within one pass"
        );
    }

    #[test]
    fn close_routes_backlog_through_reclaim() {
        let mut s = svc(SchedulerConfig {
            pacing: Pacing::DeadlinePaced,
            ..SchedulerConfig::default()
        });
        let sid = s.open(StreamQos::new(10 * MILLISECOND, 1, 2));
        for seq in 0..3 {
            s.ingest_at(sid, frame(sid, seq), 0);
        }
        s.close(sid);
        let reclaimed: Vec<u64> = s
            .platform()
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Reclaimed { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect();
        assert_eq!(reclaimed, vec![0, 1, 2], "whole backlog reclaimed on close");
        assert_eq!(s.scheduler().stream_count(), 0);
        let acct = s.scheduler().stats(sid);
        assert_eq!((acct.dropped, acct.queued()), (3, 0), "the discards count as drops");
    }

    /// A traced core: the service pass emits the canonical per-pass event
    /// sequence into the core's own ring.
    fn traced(cap: usize) -> SchedService<LinearScan, Probe> {
        let mut s = svc(SchedulerConfig::default());
        s.set_trace(cap);
        s
    }

    #[test]
    fn traced_pass_emits_drop_decision_dispatch_depth_in_order() {
        let mut s = traced(64);
        let sid = s.open(StreamQos::new(MILLISECOND, 1, 2));
        s.ingest_at(sid, frame(sid, 0), 0);
        s.ingest_at(sid, frame(sid, 1), 0);
        s.ingest_at(sid, frame(sid, 2), 0);
        // Far past the first deadline: seq 0 drops within budget, seq 1
        // dispatches, seq 2 stays queued.
        s.platform_mut().now = 100 * MILLISECOND;
        let _ = s.service_once();
        let events = s.drain_trace().events;
        let at = 100 * MILLISECOND;
        assert_eq!(
            events,
            vec![
                TraceEvent::Admit {
                    at: 0,
                    stream: sid.0,
                    period: MILLISECOND,
                    loss_num: 1,
                    loss_den: 2,
                },
                TraceEvent::Drop {
                    at,
                    stream: sid.0,
                    seq: 0
                },
                TraceEvent::Decision {
                    at,
                    stream: Some(sid.0),
                    dropped: 1,
                    backlog: 1,
                    compares: events
                        .iter()
                        .find_map(|e| match *e {
                            TraceEvent::Decision { compares, .. } => Some(compares),
                            _ => None,
                        })
                        .unwrap_or(0),
                    touches: events
                        .iter()
                        .find_map(|e| match *e {
                            TraceEvent::Decision { touches, .. } => Some(touches),
                            _ => None,
                        })
                        .unwrap_or(0),
                },
                // Seq 1 re-anchored after the drop: deadline now + period.
                TraceEvent::Dispatch {
                    at,
                    stream: sid.0,
                    seq: 1,
                    len: 1_000,
                    deadline: 101 * MILLISECOND,
                    on_time: true,
                },
                TraceEvent::QueueDepth { at, depth: 1 },
            ],
        );
    }

    #[test]
    fn traced_close_emits_drops_for_the_backlog() {
        let mut s = traced(64);
        let sid = s.open(StreamQos::new(10 * MILLISECOND, 1, 2));
        s.ingest_at(sid, frame(sid, 0), 0);
        s.ingest_at(sid, frame(sid, 1), 0);
        s.close(sid);
        let drops: Vec<u64> = s
            .drain_trace()
            .events
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Drop { seq, .. } => Some(seq),
                _ => None,
            })
            .collect();
        assert_eq!(drops, vec![0, 1], "close traces the whole backlog as drops");
    }

    #[test]
    fn untraced_platform_emits_nothing_and_behaves_identically() {
        let run = |cap: usize| {
            let mut s = traced(cap);
            let sid = s.open(StreamQos::new(MILLISECOND, 1, 2));
            for seq in 0..4 {
                s.ingest_at(sid, frame(sid, seq), 0);
            }
            for k in 1..6 {
                s.platform_mut().now = k * 2 * MILLISECOND;
                let _ = s.service_once();
            }
            (s.platform().events.clone(), s.drain_trace().is_empty())
        };
        let (traced_events, traced_empty) = run(64);
        let (plain_events, plain_empty) = run(0);
        assert!(!traced_empty && plain_empty, "only the traced core emits");
        assert_eq!(traced_events, plain_events, "tracing must not perturb scheduling");
    }

    /// `service_batch(n)` must be observationally identical to calling
    /// `service_once` until the first idle pass: same platform-call
    /// sequence, same trace events, same stream accounts. Exercised
    /// with a drop-heavy workload so drops, late sends, and on-time sends
    /// all appear.
    #[test]
    fn service_batch_matches_repeated_service_once() {
        let build = || {
            let mut s = traced(256);
            let a = s.open(StreamQos::new(MILLISECOND, 1, 2));
            let b = s.open(StreamQos::new(2 * MILLISECOND, 0, 4));
            for seq in 0..6 {
                s.ingest_at(a, frame(a, seq), 0);
                s.ingest_at(b, frame(b, seq), 0);
            }
            // Far past every deadline: stream a drops within budget,
            // stream b violates and sends late.
            s.platform_mut().now = 50 * MILLISECOND;
            s
        };

        let mut batch = build();
        let summary = batch.service_batch(64);
        assert!(summary.passes < 64, "workload drains before the budget");
        assert!(summary.dropped > 0 && summary.dispatched > 0);

        let mut single = build();
        let mut passes = 0u32;
        loop {
            let d = single.service_once();
            passes += 1;
            if d.frame.is_none() && d.dropped == 0 {
                break;
            }
        }
        assert_eq!(
            summary.passes, passes,
            "batch executes the same passes, idle pass included"
        );
        assert_eq!(batch.platform().events, single.platform().events);
        assert_eq!(
            batch.drain_trace(),
            single.drain_trace(),
            "trace streams must be byte-identical"
        );
        for sid in batch.scheduler().stream_ids() {
            assert_eq!(batch.scheduler().stats(sid), single.scheduler().stats(sid));
        }
    }

    #[test]
    fn on_decision_reports_post_decision_backlog() {
        let mut s = svc(SchedulerConfig::default());
        let sid = s.open(StreamQos::new(10 * MILLISECOND, 1, 2));
        for seq in 0..3 {
            s.ingest_at(sid, frame(sid, seq), 0);
        }
        let _ = s.service_once();
        assert!(
            s.platform()
                .events
                .contains(&Event::Decision { dropped: 0, backlog: 2 }),
            "backlog excludes the frame just popped: {:?}",
            s.platform().events
        );
    }
}
