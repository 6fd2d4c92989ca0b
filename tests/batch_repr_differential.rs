//! Differential properties for the batched struct-of-arrays core.
//!
//! Two claims ride on `BatchSoa` and the fused batch pass, and both are
//! checked here against the structures they claim to match:
//!
//! 1. **Representation level** — under random update/remove/pop
//!    sequences (with deliberately colliding deadlines, so every tie
//!    rule runs), `BatchSoa` pops in exactly the order `DualHeap` (the
//!    paper's Figure 4 structure) does.
//! 2. **Service level** — a `service_batch(budget)` sweep is
//!    observationally the same as `budget` repeated `service_once`
//!    calls: the platform sees the identical dispatch and reclaim
//!    sequence, at the identical timestamps, for random ingest/advance
//!    scripts.

use nistream::dwcs::qos::StreamQos;
use nistream::dwcs::repr::{BatchSoa, DualHeap, ScheduleRepr};
use nistream::dwcs::scheduler::SchedulerConfig;
use nistream::dwcs::svc::{DispatchRecord, Platform, SchedService};
use nistream::dwcs::types::{FrameDesc, FrameKind, StreamId, Time, MILLISECOND};
use nistream::dwcs::HeadKey;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// 1. Representation-level differential: BatchSoa vs DualHeap
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Op {
    Update { sid: u8, deadline: u64, x: u8, y: u8 },
    Remove { sid: u8 },
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Deadlines drawn from 12 buckets: collisions are the norm, so
        // the W'/x'/FCFS tie chain decides most pops.
        4 => (0u8..24, 0u64..12, 0u8..8, 1u8..9).prop_map(|(sid, bucket, x, y)| Op::Update {
            sid,
            deadline: bucket * 1_000,
            x: x.min(y),
            y,
        }),
        1 => (0u8..24).prop_map(|sid| Op::Remove { sid }),
        3 => Just(Op::Pop),
    ]
}

fn apply(repr: &mut dyn ScheduleRepr, ops: &[Op]) -> Vec<Option<(u32, u64)>> {
    let mut arrivals = 0u64;
    let mut log = Vec::new();
    for op in ops {
        match *op {
            Op::Update { sid, deadline, x, y } => {
                arrivals += 1;
                repr.update(
                    StreamId(u32::from(sid)),
                    HeadKey {
                        deadline,
                        x: u32::from(x),
                        y: u32::from(y),
                        arrival: arrivals,
                    },
                );
            }
            Op::Remove { sid } => repr.remove(StreamId(u32::from(sid))),
            Op::Pop => log.push(repr.pop_min().map(|(sid, k)| (sid.0, k.deadline))),
        }
    }
    while let Some((sid, k)) = repr.pop_min() {
        log.push(Some((sid.0, k.deadline)));
    }
    log.push(None);
    log
}

// ---------------------------------------------------------------------------
// 2. Service-level differential: service_batch vs repeated service_once
// ---------------------------------------------------------------------------

/// Platform that records every dispatch and reclaim it is handed.
#[derive(Default)]
struct Recorder {
    now: Time,
    /// (kind: 0 = dispatch / 1 = reclaim, stream, seq, time)
    events: Vec<(u8, u32, u64, Time)>,
}

impl Platform for Recorder {
    fn now(&mut self) -> Time {
        self.now
    }
    fn set_now(&mut self, t: Time) {
        self.now = t;
    }
    fn dispatch(&mut self, rec: &DispatchRecord) {
        self.events
            .push((0, rec.frame.desc.stream.0, rec.frame.desc.seq, rec.decided_at));
    }
    fn reclaim(&mut self, desc: &FrameDesc) {
        let now = self.now;
        self.events.push((1, desc.stream.0, desc.seq, now));
    }
}

#[derive(Clone, Debug)]
enum SvcOp {
    /// Enqueue the next frame of stream `s` (0..4).
    Ingest { s: u8, len: u16 },
    /// Advance the NI clock.
    Advance { dt_ms: u8 },
    /// Service with this pass budget.
    Service { budget: u8 },
}

fn svc_op_strategy() -> impl Strategy<Value = SvcOp> {
    prop_oneof![
        4 => (0u8..4, 200u16..2_000).prop_map(|(s, len)| SvcOp::Ingest { s, len }),
        3 => (0u8..25).prop_map(|dt_ms| SvcOp::Advance { dt_ms }),
        3 => (1u8..6).prop_map(|budget| SvcOp::Service { budget }),
    ]
}

fn new_svc() -> (SchedService<BatchSoa, Recorder>, Vec<StreamId>) {
    let mut svc = SchedService::new(BatchSoa::new(4), SchedulerConfig::default(), Recorder::default());
    let qos = [(1u32, 2u32), (2, 8), (1, 4), (3, 4)];
    let sids = qos
        .iter()
        .map(|&(x, y)| svc.open(StreamQos::new(10 * MILLISECOND, x, y)))
        .collect();
    (svc, sids)
}

/// Drive one service instance through the script; `batch` picks the fused
/// sweep or the repeated single-pass loop. Returns the platform event log.
fn run_script(ops: &[SvcOp], batch: bool) -> Vec<(u8, u32, u64, Time)> {
    let (mut svc, sids) = new_svc();
    let mut t: Time = 0;
    let mut seq = [0u64; 4];
    for op in ops {
        match *op {
            SvcOp::Ingest { s, len } => {
                let sid = sids[s as usize];
                svc.ingest_at(
                    sid,
                    FrameDesc::new(sid, seq[s as usize], u32::from(len), FrameKind::P),
                    t,
                );
                seq[s as usize] += 1;
            }
            SvcOp::Advance { dt_ms } => {
                t += Time::from(dt_ms) * MILLISECOND;
                svc.platform_mut().set_now(t);
            }
            SvcOp::Service { budget } => {
                if batch {
                    let _ = svc.service_batch(u32::from(budget));
                } else {
                    for _ in 0..budget {
                        let _ = svc.service_once();
                    }
                }
            }
        }
    }
    // Drain far past every deadline so late frames reclaim too.
    t += 1_000 * MILLISECOND;
    svc.platform_mut().set_now(t);
    while svc.has_pending() {
        if batch {
            let _ = svc.service_batch(16);
        } else {
            let _ = svc.service_once();
        }
    }
    svc.platform_mut().events.clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn batch_soa_matches_dual_heap(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut heap = DualHeap::new(24);
        let expected = apply(&mut heap, &ops);
        let mut soa = BatchSoa::new(24);
        let got = apply(&mut soa, &ops);
        prop_assert_eq!(&got, &expected, "batch-soa diverged from dual-heap");
    }

    #[test]
    fn service_batch_matches_repeated_service_once(ops in proptest::collection::vec(svc_op_strategy(), 1..60)) {
        let once = run_script(&ops, false);
        let fused = run_script(&ops, true);
        prop_assert_eq!(&fused, &once, "batch sweep diverged from single-pass loop");
    }
}
