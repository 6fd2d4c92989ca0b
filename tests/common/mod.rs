//! Shared fixtures for the cross-placement suites: the frame script, the
//! jittered drive loop, and the scheduler configurations that
//! `placement_conformance.rs` and `trace_conformance.rs` both run.
#![allow(dead_code)] // each integration test uses its own subset

use nistream::dwcs::scheduler::Pacing;
use nistream::dwcs::types::MILLISECOND;
use nistream::dwcs::{FrameKind, SchedulerConfig};

/// One scripted stream: QoS plus per-frame (len, kind).
pub struct ScriptStream {
    pub period: u64,
    pub loss_num: u32,
    pub loss_den: u32,
    pub droppable: bool,
    pub frames: Vec<(u32, FrameKind)>,
}

/// The shared script: three streams whose QoS mix is deliberately
/// infeasible under the jittered polling below, so the run produces
/// on-time sends, late sends, window violations AND dropped frames.
pub fn script() -> Vec<ScriptStream> {
    let kind_of = |k: usize| match k % 9 {
        0 => FrameKind::I,
        3 | 6 => FrameKind::P,
        _ => FrameKind::B,
    };
    let frames = |n: usize, base: u32| (0..n).map(|k| (base + 37 * (k as u32 % 7), kind_of(k))).collect();
    vec![
        // Tolerant video: 1 loss per window of 2, droppable.
        ScriptStream {
            period: 10 * MILLISECOND,
            loss_num: 1,
            loss_den: 2,
            droppable: true,
            frames: frames(12, 400),
        },
        // Strict telemetry: no losses allowed, late frames sent anyway —
        // the violation source.
        ScriptStream {
            period: 5 * MILLISECOND,
            loss_num: 0,
            loss_den: 1,
            droppable: false,
            frames: frames(12, 64),
        },
        // Slow bulk stream: 2 losses per window of 4, droppable.
        ScriptStream {
            period: 20 * MILLISECOND,
            loss_num: 2,
            loss_den: 4,
            droppable: true,
            frames: frames(12, 700),
        },
    ]
}

/// Poll-time jitter past each head deadline, cycled per decision. The
/// large entries push polls far past deadlines to force drops (droppable
/// streams) and violations (send-late streams).
pub const JITTER: [u64; 8] = [
    0,
    2 * MILLISECOND,
    0,
    12 * MILLISECOND,
    MILLISECOND,
    0,
    30 * MILLISECOND,
    3 * MILLISECOND,
];

/// Scheduler configuration shared by every placement.
pub fn base_config() -> SchedulerConfig {
    SchedulerConfig {
        pacing: Pacing::DeadlinePaced,
        ..SchedulerConfig::default()
    }
}

/// The shared drive loop: poll at each head deadline plus cycling jitter
/// until no head is indexed. `next`, `pass` and `pending` are the only
/// placement-specific hooks. A frame left queued once the index is empty
/// would be stranded without a representation entry, so `drive` fails on
/// it rather than draining it.
pub fn drive(mut next: impl FnMut() -> Option<u64>, mut pass: impl FnMut(u64), pending: impl FnOnce() -> bool) {
    let mut i = 0usize;
    let mut guard = 0u32;
    let mut t = 0u64;
    while let Some(d) = next() {
        guard += 1;
        assert!(guard < 10_000, "drive loop runaway");
        t = t.max(d + JITTER[i % JITTER.len()]);
        i += 1;
        pass(t);
    }
    assert!(!pending(), "frames still queued with no indexed head");
}
