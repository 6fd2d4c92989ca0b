//! The media-scheduler DVCM extension (§3 of the paper).
//!
//! A thin VCM-instruction shim over the placement-agnostic service core
//! [`dwcs::svc::SchedService`]: host producers push `EnqueueFrame`
//! instructions (frames themselves are already in NI memory — only
//! descriptors travel), the NI task loop polls for scheduling decisions,
//! and the core hands dispatched frames to the extension's
//! [`Platform`] — by default [`NiOutbox`], an
//! outbox the embedding drains onto the wire (`serversim` charges
//! Ethernet time; the real engine in `nistream-core` binds the same core
//! to a sink thread instead).
//!
//! The schedule representation is the paper's dual heap (Figure 4); each
//! decision's [`dwcs::repr::Work`] rides along so the i960 cost model can
//! price it (Tables 1–3).

use crate::extension::{ExtReply, ExtensionModule};
use crate::instr::{StreamSpec, VcmInstruction};
use dwcs::svc::{Platform, SchedService};
use dwcs::{
    BatchSummary, DualHeap, DwcsScheduler, FrameDesc, FrameKind, SchedDecision, SchedulerConfig, StreamId, StreamQos,
    Time,
};
use nistream_trace::{TraceCapture, TraceEvent};
use std::collections::VecDeque;

pub use dwcs::svc::DispatchRecord;

/// Completion statuses the extension returns.
pub mod status {
    /// Success.
    pub const OK: u8 = 0;
    /// Unknown stream id.
    pub const NO_STREAM: u8 = 2;
    /// Malformed QoS (zero period, x > y).
    pub const BAD_QOS: u8 = 3;
}

/// Upper bound on retained dropped-frame descriptors: the host reclaims
/// them batch-wise; an inattentive host loses the oldest notices rather
/// than growing NI memory without bound.
const RECLAIM_LOG_CAP: usize = 4_096;

/// The default NI-resident [`Platform`]: a settable NI clock, an outbox
/// of [`DispatchRecord`]s the embedding drains onto the wire, and a
/// bounded log of dropped descriptors for host-side slot reclamation.
#[derive(Default)]
pub struct NiOutbox {
    now: Time,
    outbox: VecDeque<DispatchRecord>,
    reclaimed: VecDeque<FrameDesc>,
}

impl Platform for NiOutbox {
    fn now(&mut self) -> Time {
        self.now
    }

    fn set_now(&mut self, t: Time) {
        self.now = t;
    }

    fn dispatch(&mut self, rec: &DispatchRecord) {
        self.outbox.push_back(*rec);
    }

    fn reclaim(&mut self, desc: &FrameDesc) {
        if self.reclaimed.len() >= RECLAIM_LOG_CAP {
            self.reclaimed.pop_front();
        }
        self.reclaimed.push_back(*desc);
    }
}

/// The DWCS scheduler as a DVCM extension module, generic over the
/// [`Platform`] the service core dispatches into. The default
/// ([`NiOutbox`]) queues records for the embedding; simulation worlds
/// substitute platforms that price wire occupancy inline.
pub struct MediaSchedExt<P: Platform = NiOutbox> {
    svc: SchedService<DualHeap, P>,
    /// Per-stream producer sequence numbers.
    next_seq: Vec<u64>,
}

impl MediaSchedExt {
    /// Extension with the paper's configuration: dual-heap representation,
    /// default scheduler configuration, outbox platform.
    pub fn new(max_streams: usize) -> MediaSchedExt {
        MediaSchedExt::with_config(max_streams, SchedulerConfig::default())
    }

    /// Extension with an explicit scheduler configuration (pacing,
    /// deadline anchor, lateness grace).
    pub fn with_config(max_streams: usize, cfg: SchedulerConfig) -> MediaSchedExt {
        MediaSchedExt::with_platform(max_streams, cfg, NiOutbox::default())
    }

    /// Drain one dispatched frame (the wire side).
    pub fn pop_dispatch(&mut self) -> Option<DispatchRecord> {
        self.svc.platform_mut().outbox.pop_front()
    }

    /// Frames awaiting wire transmission.
    pub fn outbox_len(&self) -> usize {
        self.svc.platform().outbox.len()
    }

    /// Drain the descriptors of frames dropped (or discarded by a stream
    /// close) since the last call — the host releases their NI-memory
    /// slots. The log is bounded (oldest notices fall off first).
    pub fn drain_reclaimed(&mut self) -> Vec<FrameDesc> {
        self.svc.platform_mut().reclaimed.drain(..).collect()
    }
}

impl<P: Platform> MediaSchedExt<P> {
    /// Extension over an explicit platform (simulators bind cost models
    /// here; see [`NiOutbox`] for the default).
    pub fn with_platform(max_streams: usize, cfg: SchedulerConfig, platform: P) -> MediaSchedExt<P> {
        MediaSchedExt {
            svc: SchedService::new(DualHeap::new(max_streams), cfg, platform),
            next_seq: Vec::new(),
        }
    }

    /// One scheduling decision at NI time `now`; a dispatched frame goes to
    /// the platform. Returns the raw decision for cost-model pricing.
    pub fn poll_decision(&mut self, now: Time) -> SchedDecision {
        self.svc.platform_mut().set_now(now);
        self.svc.service_once()
    }

    /// Up to `budget` service passes in one call at NI time `now`
    /// ([`dwcs::svc::SchedService::service_batch`]). Observationally
    /// identical to `budget` calls to
    /// [`poll_decision`](MediaSchedExt::poll_decision) at the same `now`:
    /// the platform sees the same dispatch/reclaim/trace sequence.
    pub fn poll_batch(&mut self, now: Time, budget: u32) -> BatchSummary {
        self.svc.platform_mut().set_now(now);
        self.svc.service_batch(budget)
    }

    /// Whether any stream has queued frames.
    pub fn has_pending(&self) -> bool {
        self.svc.has_pending()
    }

    /// Direct scheduler access (experiments read stats, windows).
    pub fn scheduler(&self) -> &DwcsScheduler<DualHeap> {
        self.svc.scheduler()
    }

    /// Mutable scheduler access.
    pub fn scheduler_mut(&mut self) -> &mut DwcsScheduler<DualHeap> {
        self.svc.scheduler_mut()
    }

    /// The platform the service core dispatches into.
    pub fn platform(&self) -> &P {
        self.svc.platform()
    }

    /// Mutable platform access.
    pub fn platform_mut(&mut self) -> &mut P {
        self.svc.platform_mut()
    }

    /// Attach an NI-resident trace ring of `capacity` events (0 removes
    /// tracing); drain with [`drain_trace`](MediaSchedExt::drain_trace).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.svc.set_trace(capacity);
    }

    /// Drain captured trace events (empty capture when tracing is off).
    pub fn drain_trace(&mut self) -> TraceCapture {
        self.svc.drain_trace()
    }

    fn open(&mut self, spec: StreamSpec, now: Time) -> ExtReply {
        if spec.period == 0 || spec.loss_den == 0 || spec.loss_num > spec.loss_den {
            if let Some(ring) = self.svc.tracer() {
                ring.push(TraceEvent::Reject {
                    at: now,
                    reason: u32::from(status::BAD_QOS),
                });
            }
            return ExtReply::err(status::BAD_QOS);
        }
        let mut qos = StreamQos::new(spec.period, spec.loss_num, spec.loss_den);
        if !spec.droppable {
            qos = qos.send_late();
        }
        // Latch instruction time so the service core stamps the Admit
        // event with it.
        self.svc.platform_mut().set_now(now);
        let sid = self.svc.open(qos);
        if sid.index() >= self.next_seq.len() {
            self.next_seq.resize(sid.index() + 1, 0);
        }
        self.next_seq[sid.index()] = 0;
        ExtReply::with(vec![sid.0])
    }

    fn enqueue(&mut self, stream: StreamId, addr: u64, len: u32, kind: FrameKind, now: Time) -> ExtReply {
        if stream.index() >= self.next_seq.len() {
            return ExtReply::err(status::NO_STREAM);
        }
        let seq = self.next_seq[stream.index()];
        self.next_seq[stream.index()] += 1;
        let desc = FrameDesc {
            stream,
            seq,
            len,
            kind,
            enqueued_at: now,
            addr,
        };
        self.svc.ingest_at(stream, desc, now);
        ExtReply::ok()
    }

    fn stats(&self, sid: StreamId) -> ExtReply {
        if sid.index() >= self.next_seq.len() {
            return ExtReply::err(status::NO_STREAM);
        }
        let s = self.svc.scheduler().stats(sid);
        ExtReply::with(vec![
            s.sent_on_time as u32,
            s.sent_late as u32,
            s.dropped as u32,
            s.violations as u32,
            (s.bytes_sent >> 32) as u32,
            s.bytes_sent as u32,
            (s.mean_queue_delay() / 1_000) as u32, // µs
        ])
    }
}

impl<P: Platform + 'static> ExtensionModule for MediaSchedExt<P> {
    fn name(&self) -> &str {
        "dwcs-media-scheduler"
    }

    fn on_instruction(&mut self, instr: VcmInstruction, now: Time) -> ExtReply {
        match instr {
            VcmInstruction::OpenStream(spec) => self.open(spec, now),
            VcmInstruction::CloseStream(sid) => {
                if sid.index() >= self.next_seq.len() {
                    ExtReply::err(status::NO_STREAM)
                } else {
                    self.svc.platform_mut().set_now(now);
                    self.svc.close(sid);
                    ExtReply::ok()
                }
            }
            VcmInstruction::EnqueueFrame {
                stream,
                addr,
                len,
                kind,
            } => self.enqueue(stream, addr, len, kind, now),
            VcmInstruction::QueryStats(sid) => self.stats(sid),
            VcmInstruction::Kick => {
                self.poll_decision(now);
                ExtReply::ok()
            }
        }
    }

    fn poll(&mut self, now: Time) -> u32 {
        let d = self.poll_decision(now);
        u32::from(d.frame.is_some()) + d.dropped
    }

    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwcs::types::MILLISECOND;

    fn open_spec(period_ms: u64, x: u32, y: u32) -> VcmInstruction {
        VcmInstruction::OpenStream(StreamSpec {
            period: period_ms * MILLISECOND,
            loss_num: x,
            loss_den: y,
            droppable: true,
        })
    }

    #[test]
    fn open_enqueue_poll_dispatch() {
        let mut ext = MediaSchedExt::new(8);
        let reply = ext.on_instruction(open_spec(10, 1, 2), 0);
        assert_eq!(reply.status, 0);
        let sid = StreamId(reply.payload[0]);

        let r = ext.on_instruction(
            VcmInstruction::EnqueueFrame {
                stream: sid,
                addr: 0xA000,
                len: 1000,
                kind: FrameKind::I,
            },
            0,
        );
        assert_eq!(r, ExtReply::ok());
        assert_eq!(ext.poll(MILLISECOND), 1);
        let rec = ext.pop_dispatch().expect("frame dispatched");
        assert_eq!(rec.frame.desc.addr, 0xA000);
        assert!(rec.frame.on_time);
        assert_eq!(ext.outbox_len(), 0);
    }

    #[test]
    fn stats_reflect_service() {
        let mut ext = MediaSchedExt::new(8);
        let sid = StreamId(ext.on_instruction(open_spec(10, 1, 2), 0).payload[0]);
        for _ in 0..3 {
            ext.on_instruction(
                VcmInstruction::EnqueueFrame {
                    stream: sid,
                    addr: 0,
                    len: 500,
                    kind: FrameKind::P,
                },
                0,
            );
            ext.poll(0);
        }
        let stats = ext.on_instruction(VcmInstruction::QueryStats(sid), 0);
        assert_eq!(stats.status, 0);
        assert_eq!(stats.payload[0], 3, "3 on-time");
        assert_eq!(stats.payload[5], 1500, "bytes low word");
    }

    #[test]
    fn bad_qos_and_unknown_stream_rejected() {
        let mut ext = MediaSchedExt::new(8);
        let r = ext.on_instruction(open_spec(0, 1, 2), 0);
        assert_eq!(r.status, status::BAD_QOS);
        let r = ext.on_instruction(
            VcmInstruction::OpenStream(StreamSpec {
                period: 10,
                loss_num: 5,
                loss_den: 2,
                droppable: true,
            }),
            0,
        );
        assert_eq!(r.status, status::BAD_QOS);
        let r = ext.on_instruction(VcmInstruction::QueryStats(StreamId(9)), 0);
        assert_eq!(r.status, status::NO_STREAM);
        let r = ext.on_instruction(
            VcmInstruction::EnqueueFrame {
                stream: StreamId(9),
                addr: 0,
                len: 1,
                kind: FrameKind::B,
            },
            0,
        );
        assert_eq!(r.status, status::NO_STREAM);
    }

    #[test]
    fn close_stops_service() {
        let mut ext = MediaSchedExt::new(8);
        let sid = StreamId(ext.on_instruction(open_spec(10, 1, 2), 0).payload[0]);
        ext.on_instruction(
            VcmInstruction::EnqueueFrame {
                stream: sid,
                addr: 0,
                len: 1,
                kind: FrameKind::B,
            },
            0,
        );
        assert_eq!(ext.on_instruction(VcmInstruction::CloseStream(sid), 0), ExtReply::ok());
        assert_eq!(ext.poll(0), 0, "closed stream's backlog discarded");
    }

    #[test]
    fn close_surfaces_backlog_for_reclamation() {
        let mut ext = MediaSchedExt::new(8);
        let sid = StreamId(ext.on_instruction(open_spec(10, 1, 2), 0).payload[0]);
        for addr in 10..13u64 {
            ext.on_instruction(
                VcmInstruction::EnqueueFrame {
                    stream: sid,
                    addr,
                    len: 1,
                    kind: FrameKind::B,
                },
                0,
            );
        }
        ext.on_instruction(VcmInstruction::CloseStream(sid), 0);
        let addrs: Vec<u64> = ext.drain_reclaimed().iter().map(|d| d.addr).collect();
        assert_eq!(addrs, vec![10, 11, 12], "host can release the slots");
        assert!(ext.drain_reclaimed().is_empty(), "drain clears the log");
    }

    #[test]
    fn dropped_frames_reach_the_reclaim_log() {
        let mut ext = MediaSchedExt::new(8);
        // Tolerance 1/1: a late head drops within budget.
        let sid = StreamId(ext.on_instruction(open_spec(1, 1, 1), 0).payload[0]);
        for addr in 0..2u64 {
            ext.on_instruction(
                VcmInstruction::EnqueueFrame {
                    stream: sid,
                    addr,
                    len: 1,
                    kind: FrameKind::B,
                },
                0,
            );
        }
        let d = ext.poll_decision(100 * MILLISECOND);
        assert!(d.dropped >= 1);
        let reclaimed = ext.drain_reclaimed();
        assert_eq!(reclaimed.len() as u32, d.dropped, "every drop surfaced");
    }

    #[test]
    fn kick_drives_a_decision() {
        let mut ext = MediaSchedExt::new(8);
        let sid = StreamId(ext.on_instruction(open_spec(10, 1, 2), 0).payload[0]);
        ext.on_instruction(
            VcmInstruction::EnqueueFrame {
                stream: sid,
                addr: 1,
                len: 1,
                kind: FrameKind::B,
            },
            0,
        );
        ext.on_instruction(VcmInstruction::Kick, 0);
        assert_eq!(ext.outbox_len(), 1);
    }

    #[test]
    fn traced_extension_captures_admits_rejects_and_dispatches() {
        let mut ext = MediaSchedExt::new(8);
        ext.enable_trace(256);
        let sid = StreamId(ext.on_instruction(open_spec(10, 1, 2), 0).payload[0]);
        assert_eq!(ext.on_instruction(open_spec(0, 1, 2), 5).status, status::BAD_QOS);
        ext.on_instruction(
            VcmInstruction::EnqueueFrame {
                stream: sid,
                addr: 0xA000,
                len: 1000,
                kind: FrameKind::I,
            },
            0,
        );
        ext.poll(MILLISECOND);
        let cap = ext.drain_trace();
        let kinds: Vec<&'static str> = cap
            .events
            .iter()
            .map(|e| match e {
                TraceEvent::Admit { .. } => "admit",
                TraceEvent::Reject { .. } => "reject",
                TraceEvent::Decision { .. } => "decision",
                TraceEvent::Dispatch { .. } => "dispatch",
                TraceEvent::Drop { .. } => "drop",
                TraceEvent::QueueDepth { .. } => "qdepth",
            })
            .collect();
        assert_eq!(kinds, vec!["admit", "reject", "decision", "dispatch", "qdepth"]);
        assert!(cap
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::Reject { at: 5, reason } if *reason == u32::from(status::BAD_QOS))));
        // Tracing off: captures are empty and behaviour is unchanged.
        ext.enable_trace(0);
        ext.poll(2 * MILLISECOND);
        assert!(ext.drain_trace().is_empty());
    }

    #[test]
    fn two_streams_scheduled_by_dwcs_rules() {
        let mut ext = MediaSchedExt::new(8);
        let slow = StreamId(ext.on_instruction(open_spec(100, 1, 2), 0).payload[0]);
        let fast = StreamId(ext.on_instruction(open_spec(5, 1, 2), 0).payload[0]);
        for (sid, addr) in [(slow, 1u64), (fast, 2u64)] {
            ext.on_instruction(
                VcmInstruction::EnqueueFrame {
                    stream: sid,
                    addr,
                    len: 100,
                    kind: FrameKind::P,
                },
                0,
            );
        }
        ext.poll(0);
        let first = ext.pop_dispatch().unwrap();
        assert_eq!(first.frame.desc.stream, fast, "earlier deadline first");
    }
}
