//! Placement conformance: the host engine and the NI extension are the
//! *same scheduler*.
//!
//! The paper's central claim is that moving the DWCS scheduler from the
//! host CPU to the network co-processor changes *where* decisions run,
//! never *what* they are. After the `dwcs::svc` consolidation that claim
//! is structural — both placements drive one `SchedService` — and this
//! suite pins it observationally: an identical multi-stream frame script
//! (mixed feasible/infeasible QoS, droppable and send-late streams) is
//! pushed through
//!
//! * the host engine's service core (`host_sched_core`: virtual clock,
//!   real `FramePool`, collecting sink), and
//! * the DVCM media-scheduler extension (descriptors injected through
//!   VCM instructions, dispatches drained from the NI outbox),
//!
//! and every observable must match exactly: dispatch order with
//! timestamps and on-time flags, the dropped-frame set in reclaim order,
//! and per-stream service statistics.

mod common;

use common::{base_config, drive, script};
use nistream::dvcm::instr::{StreamSpec, VcmInstruction};
use nistream::dvcm::{ExtensionModule, MediaSchedExt};
use nistream::dwcs::{FrameDesc, SchedulerConfig, StreamQos};
use nistream::engine::{host_sched_core, CollectSink, EngineClock};
use nistream::pool::FramePool;

/// Everything observable about one run, placement-independent.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    /// `(stream, seq, on_time, at_ns)` in dispatch order.
    dispatches: Vec<(u32, u64, bool, u64)>,
    /// `(stream, seq)` in reclaim order.
    drops: Vec<(u32, u64)>,
    /// `(sent_on_time, sent_late, dropped, violations)` per stream.
    stats: Vec<(u64, u64, u64, u64)>,
}

/// Run the script through the host engine's service core on a virtual
/// clock, with payloads in a real frame pool and a collecting sink.
fn run_host_engine(cfg: SchedulerConfig) -> Outcome {
    let pool = FramePool::new(64, 1024);
    let clock = EngineClock::virtual_clock();
    let (sink, records, drops) = CollectSink::shared(clock.clone());
    let mut svc = host_sched_core(cfg, clock.clone(), pool.clone(), Box::new(sink));

    let streams = script();
    let sids: Vec<_> = streams
        .iter()
        .map(|s| {
            let mut qos = StreamQos::new(s.period, s.loss_num, s.loss_den);
            if !s.droppable {
                qos = qos.send_late();
            }
            svc.open(qos)
        })
        .collect();
    for (si, s) in streams.iter().enumerate() {
        for (seq, &(len, kind)) in s.frames.iter().enumerate() {
            let payload = vec![si as u8; len as usize];
            let slot = pool.store(&payload).expect("pool sized for the script");
            let desc = FrameDesc {
                stream: sids[si],
                seq: seq as u64,
                len,
                kind,
                enqueued_at: 0,
                addr: u64::from(slot),
            };
            svc.ingest_at(sids[si], desc, 0);
        }
    }

    {
        let clock = &clock;
        let svc = std::cell::RefCell::new(&mut svc);
        drive(
            || svc.borrow_mut().next_eligible(),
            |t| {
                clock.set_ns(t);
                svc.borrow_mut().service_once();
            },
            || svc.borrow().has_pending(),
        );
    }

    let dispatches = records
        .lock()
        .iter()
        .map(|r| (r.stream.0, r.seq, r.on_time, r.at_ns))
        .collect();
    let drops = drops.lock().iter().map(|d| (d.stream.0, d.seq)).collect();
    Outcome {
        dispatches,
        drops,
        stats: sids
            .iter()
            .map(|&sid| {
                let s = svc.scheduler().stats(sid);
                (s.sent_on_time, s.sent_late, s.dropped, s.violations)
            })
            .collect(),
    }
}

/// Run the same script through the DVCM media-scheduler extension:
/// streams opened and descriptors injected via VCM instructions,
/// dispatches drained from the NI outbox, drops from the reclaim log.
fn run_ni_extension(cfg: SchedulerConfig) -> Outcome {
    let mut ext = MediaSchedExt::with_config(8, cfg);

    let streams = script();
    let sids: Vec<_> = streams
        .iter()
        .map(|s| {
            let reply = ext.on_instruction(
                VcmInstruction::OpenStream(StreamSpec {
                    period: s.period,
                    loss_num: s.loss_num,
                    loss_den: s.loss_den,
                    droppable: s.droppable,
                }),
                0,
            );
            assert_eq!(reply.status, 0, "admission");
            nistream::dwcs::StreamId(reply.payload[0])
        })
        .collect();
    let mut addr = 0x9000_0000u64;
    for (si, s) in streams.iter().enumerate() {
        for &(len, kind) in &s.frames {
            let reply = ext.on_instruction(
                VcmInstruction::EnqueueFrame {
                    stream: sids[si],
                    addr,
                    len,
                    kind,
                },
                0,
            );
            assert_eq!(reply.status, 0, "enqueue");
            addr += u64::from(len);
        }
    }

    let mut dispatches = Vec::new();
    {
        let ext = std::cell::RefCell::new(&mut ext);
        let dispatches = std::cell::RefCell::new(&mut dispatches);
        drive(
            || ext.borrow_mut().scheduler_mut().next_eligible(),
            |t| {
                ext.borrow_mut().poll_decision(t);
                while let Some(rec) = ext.borrow_mut().pop_dispatch() {
                    dispatches.borrow_mut().push((
                        rec.frame.desc.stream.0,
                        rec.frame.desc.seq,
                        rec.frame.on_time,
                        rec.decided_at,
                    ));
                }
            },
            || ext.borrow().has_pending(),
        );
    }

    Outcome {
        dispatches,
        drops: ext.drain_reclaimed().iter().map(|d| (d.stream.0, d.seq)).collect(),
        stats: sids
            .iter()
            .map(|&sid| {
                let s = ext.scheduler().stats(sid);
                (s.sent_on_time, s.sent_late, s.dropped, s.violations)
            })
            .collect(),
    }
}

/// The script must actually exercise every outcome class, or the
/// conformance assertion would pass vacuously.
fn assert_script_nontrivial(o: &Outcome) {
    assert!(o.dispatches.iter().any(|d| d.2), "script produces on-time sends");
    assert!(o.dispatches.iter().any(|d| !d.2), "script produces late sends");
    assert!(!o.drops.is_empty(), "script produces drops");
    assert!(o.stats.iter().any(|s| s.3 > 0), "script produces violations");
    let total: u64 = o.stats.iter().map(|s| s.0 + s.1 + s.2).sum();
    assert_eq!(total, 36, "every scripted frame is accounted for");
}

#[test]
fn coupled_dispatch_is_placement_invariant() {
    let host = run_host_engine(base_config());
    let ni = run_ni_extension(base_config());
    assert_script_nontrivial(&host);
    assert_eq!(
        host.dispatches, ni.dispatches,
        "dispatch order, timestamps, on-time flags"
    );
    assert_eq!(host.drops, ni.drops, "dropped-frame set and reclaim order");
    assert_eq!(host.stats, ni.stats, "per-stream service statistics");
}
