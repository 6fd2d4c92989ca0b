//! Trace conformance: every placement narrates the same schedule.
//!
//! The tracing layer extends the placement-invariance claim pinned by
//! `placement_conformance.rs` from *outcomes* to *event streams*: the
//! host engine's service core, the DVCM media-scheduler extension, and
//! both whole-server simulation bindings (`HostSendPlatform`,
//! `NiWirePlatform`) run the shared frame script with a trace ring
//! attached, and the serialized traces must be byte-identical — same
//! events, same order, same timestamps, regardless of where the
//! scheduler runs or which cost model prices its decisions. Each
//! placement's scheduler accounts also equal the fold of its own trace,
//! stream by stream: the scheduler and the host fold keep one
//! `StreamAccount` type, updated by the same code at the same instants.
//! Every placement closes one stream mid-run with frames still queued, so
//! the comparison covers a close's discards too.

mod common;

use common::{base_config, drive, script};
use nistream::dvcm::instr::{StreamSpec, VcmInstruction};
use nistream::dvcm::{ExtensionModule, MediaSchedExt};
use nistream::dwcs::svc::{Platform, SchedService};
use nistream::dwcs::{DualHeap, FrameDesc, SchedulerConfig, StreamQos};
use nistream::engine::{host_sched_core, CollectSink, EngineClock};
use nistream::pool::FramePool;
use nistream::serversim::hostload::HostSendPlatform;
use nistream::serversim::niload::NiWirePlatform;
use nistream::trace::{to_lines, Aggregate, StreamAccount, TraceCapture, TraceEvent};
use std::cell::RefCell;

const CAP: usize = 4096;

/// The script stream every placement closes mid-run, still backlogged…
const CLOSED: usize = 2;
/// …right after this many service passes, stamped at that pass's time.
const CLOSE_AFTER: usize = 16;

/// Serialize a capture to its canonical byte form (overflow header plus
/// one line per event) so placement comparison is a plain `assert_eq!`
/// on strings.
fn canon(cap: &TraceCapture) -> String {
    format!("overflow={}\n{}", cap.overflow, to_lines(&cap.events))
}

/// One placement's run: the drained capture, and every stream's account
/// as its scheduler kept it.
type Traced = (TraceCapture, Vec<(u32, StreamAccount)>);

/// Drive the shared script through a raw, traced `SchedService` bound to
/// any platform.
fn run_svc<P: Platform>(cfg: SchedulerConfig, platform: P) -> Traced {
    let mut svc = SchedService::new(DualHeap::new(16), cfg, platform);
    svc.set_trace(CAP);
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
    let mut addr = 0x9000_0000u64;
    for (si, s) in streams.iter().enumerate() {
        for (seq, &(len, kind)) in s.frames.iter().enumerate() {
            let desc = FrameDesc {
                stream: sids[si],
                seq: seq as u64,
                len,
                kind,
                enqueued_at: 0,
                addr,
            };
            svc.ingest_at(sids[si], desc, 0);
            addr += u64::from(len);
        }
    }
    {
        let svc = RefCell::new(&mut svc);
        let mut passes = 0;
        drive(
            || svc.borrow_mut().next_eligible(),
            |t| {
                let mut s = svc.borrow_mut();
                s.platform_mut().set_now(t);
                s.service_once();
                passes += 1;
                if passes == CLOSE_AFTER {
                    assert!(s.scheduler().stats(sids[CLOSED]).queued() > 0, "closed backlogged");
                    s.platform_mut().set_now(t);
                    s.close(sids[CLOSED]);
                }
            },
            || svc.borrow().has_pending(),
        );
    }
    let accounts = sids
        .iter()
        .map(|&sid| (sid.0, svc.scheduler().stats(sid).clone()))
        .collect();
    (svc.drain_trace(), accounts)
}

/// The host engine's service core (virtual clock, real frame pool).
fn trace_host_engine(cfg: SchedulerConfig) -> Traced {
    let pool = FramePool::new(64, 1024);
    let clock = EngineClock::virtual_clock();
    let (sink, _records, _drops) = CollectSink::shared(clock.clone());
    let mut svc = host_sched_core(cfg, clock.clone(), pool.clone(), Box::new(sink));
    svc.set_trace(CAP);

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
        let svc = RefCell::new(&mut svc);
        let mut passes = 0;
        drive(
            || svc.borrow_mut().next_eligible(),
            |t| {
                clock.set_ns(t);
                svc.borrow_mut().service_once();
                passes += 1;
                if passes == CLOSE_AFTER {
                    let mut s = svc.borrow_mut();
                    assert!(s.scheduler().stats(sids[CLOSED]).queued() > 0, "closed backlogged");
                    clock.set_ns(t);
                    s.close(sids[CLOSED]);
                }
            },
            || svc.borrow().has_pending(),
        );
    }
    let accounts = sids
        .iter()
        .map(|&sid| (sid.0, svc.scheduler().stats(sid).clone()))
        .collect();
    (svc.drain_trace(), accounts)
}

/// The DVCM media-scheduler extension (VCM instruction path, NI outbox).
fn trace_ni_extension(cfg: SchedulerConfig) -> Traced {
    let mut ext = MediaSchedExt::with_config(8, cfg);
    ext.enable_trace(CAP);

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
    {
        let ext = RefCell::new(&mut ext);
        let mut passes = 0;
        drive(
            || ext.borrow_mut().scheduler_mut().next_eligible(),
            |t| {
                ext.borrow_mut().poll_decision(t);
                while ext.borrow_mut().pop_dispatch().is_some() {}
                passes += 1;
                if passes == CLOSE_AFTER {
                    let queued = ext.borrow().scheduler().stats(sids[CLOSED]).queued();
                    assert!(queued > 0, "closed backlogged");
                    let reply = ext
                        .borrow_mut()
                        .on_instruction(VcmInstruction::CloseStream(sids[CLOSED]), t);
                    assert_eq!(reply.status, 0, "close");
                }
            },
            || ext.borrow().has_pending(),
        );
    }
    let accounts = sids
        .iter()
        .map(|&sid| (sid.0, ext.scheduler().stats(sid).clone()))
        .collect();
    (ext.drain_trace(), accounts)
}

/// The trace must exercise every event class the script can produce, or
/// byte-equality would pin a vacuous stream.
fn assert_trace_nontrivial(cap: &TraceCapture) {
    assert!(!cap.is_empty(), "script produces events");
    assert_eq!(cap.overflow, 0, "ring sized for the script");
    let has = |f: fn(&TraceEvent) -> bool| cap.events.iter().any(f);
    assert!(has(|e| matches!(e, TraceEvent::Admit { .. })), "admits");
    assert!(has(|e| matches!(e, TraceEvent::Decision { .. })), "decisions");
    assert!(
        has(|e| matches!(e, TraceEvent::Dispatch { on_time: true, .. })),
        "on-time dispatches"
    );
    assert!(
        has(|e| matches!(e, TraceEvent::Dispatch { on_time: false, .. })),
        "late dispatches"
    );
    assert!(has(|e| matches!(e, TraceEvent::Drop { .. })), "drops");
    assert!(has(|e| matches!(e, TraceEvent::QueueDepth { .. })), "queue depths");
}

/// The four placements, each run on the shared script.
fn all_four() -> [(&'static str, Traced); 4] {
    [
        ("engine", trace_host_engine(base_config())),
        ("DVCM extension", trace_ni_extension(base_config())),
        (
            "host-send simulation platform",
            run_svc(base_config(), HostSendPlatform::new(3)),
        ),
        (
            "NI-wire simulation platform",
            run_svc(base_config(), NiWirePlatform::new(3, true)),
        ),
    ]
}

#[test]
fn all_four_placements_emit_byte_identical_traces() {
    let [(_, (engine, _)), (_, (ext, _)), (_, (hostsend, _)), (_, (niwire, _))] = all_four();

    assert_trace_nontrivial(&engine);
    let golden = canon(&engine);
    assert_eq!(golden, canon(&ext), "engine vs DVCM extension");
    assert_eq!(golden, canon(&hostsend), "engine vs host-send simulation platform");
    assert_eq!(golden, canon(&niwire), "engine vs NI-wire simulation platform");
}

#[test]
fn cost_models_do_not_leak_into_the_trace() {
    // The two simulation platforms price passes on different hardware
    // models (host CPU vs i960+Ethernet), advancing their clocks by
    // different amounts mid-pass — yet every event is stamped with the
    // pass-start time, so the narration is identical. The cache flag
    // changes i960 pricing only; flipping it must change nothing either.
    let (cached, _) = run_svc(base_config(), NiWirePlatform::new(3, true));
    let (uncached, _) = run_svc(base_config(), NiWirePlatform::new(3, false));
    assert_eq!(canon(&cached), canon(&uncached));
}

#[test]
fn scheduler_accounts_equal_the_trace_fold() {
    for (name, (cap, accounts)) in all_four() {
        assert_trace_nontrivial(&cap);
        let mut agg = Aggregate::new();
        agg.fold_all(&cap.events);
        assert_eq!(agg.streams().count(), accounts.len(), "{name}: every stream traced");
        for (sid, mut acct) in accounts {
            assert!(
                acct.enqueued > 0 && acct.queue_delay_sum > 0,
                "{name}: stream {sid} was served"
            );
            // The trace carries no enqueues, violations or queuing delays.
            acct.enqueued = 0;
            acct.violations = 0;
            acct.queue_delay_sum = 0;
            acct.queue_delay_max = 0;
            assert_eq!(agg.stream(sid), Some(&acct), "{name}: stream {sid}");
        }
    }
}
