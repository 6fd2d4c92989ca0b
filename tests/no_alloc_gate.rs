//! Runtime gate for the `ni-no-alloc` static invariant: after warm-up, a
//! steady-state `SchedService` pass — ingest, decide, drop, dispatch,
//! trace — performs **zero** heap allocations. The static lint proves the
//! property over the call graph; this test proves it over an actual run,
//! so a regression that sneaks past the analysis (e.g. through a trait
//! object or a std call the lint does not model) still fails CI.
//!
//! The counting allocator is gated and counts per thread: only
//! allocations made by the test thread between `gate_on` and `gate_off`
//! are counted, so neither the harness's bookkeeping threads nor the
//! other tests of this file, running in parallel, pollute the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nistream::dwcs::qos::StreamQos;
use nistream::dwcs::repr::{BatchSoa, LinearScan, ScheduleRepr};
use nistream::dwcs::scheduler::{DwcsScheduler, SchedulerConfig};
use nistream::dwcs::svc::{DispatchRecord, Platform, SchedService};
use nistream::dwcs::types::{FrameDesc, FrameKind, StreamId, Time, MILLISECOND};
use nistream::serversim::chassis::{self, ChassisConfig, Sourcing};
use nistream::simkit::{Engine, Event, SimDuration, SimTime};

thread_local! {
    static GATE: Cell<bool> = const { Cell::new(false) };
    static GATED_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_if_gated() {
    // `try_with` instead of `with`: the allocator runs during TLS
    // teardown too, where accessing a destroyed key would abort.
    if GATE.try_with(Cell::get).unwrap_or(false) {
        let _ = GATED_ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_gated();
        // SAFETY: forwarding the caller's layout to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with the same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing Vec reaches here rather than `alloc`; count it the same.
        count_if_gated();
        // SAFETY: same contract as `GlobalAlloc::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn gate_on() {
    GATED_ALLOCS.with(|n| n.set(0));
    GATE.with(|c| c.set(true));
}

fn gate_off() -> u64 {
    GATE.with(|c| c.set(false));
    GATED_ALLOCS.with(Cell::get)
}

/// Minimal placement: settable clock, counting sink.
#[derive(Default)]
struct NullPlatform {
    now: Time,
    dispatched: u64,
    reclaimed: u64,
}

impl Platform for NullPlatform {
    fn now(&mut self) -> Time {
        self.now
    }
    fn set_now(&mut self, t: Time) {
        self.now = t;
    }
    fn dispatch(&mut self, _rec: &DispatchRecord) {
        self.dispatched += 1;
    }
    fn reclaim(&mut self, _desc: &FrameDesc) {
        self.reclaimed += 1;
    }
}

/// A service core over `repr` with a 64-event trace ring, so the gate
/// covers the trace path too.
fn traced_svc<R: ScheduleRepr>(repr: R) -> SchedService<R, NullPlatform> {
    let mut svc = SchedService::new(repr, SchedulerConfig::default(), NullPlatform::default());
    svc.set_trace(64);
    svc
}

/// Events the core's ring has evicted so far.
fn ring_overflow<R: ScheduleRepr>(svc: &mut SchedService<R, NullPlatform>) -> u64 {
    svc.tracer().map_or(0, |ring| ring.overflow())
}

const PERIOD: Time = 10 * MILLISECOND;

fn frame(sid: StreamId, seq: u64) -> FrameDesc {
    FrameDesc::new(sid, seq, 1_000, FrameKind::P)
}

/// One on-time pass: ingest a frame, advance past its deadline window
/// start, service.
fn on_time_pass(svc: &mut SchedService<LinearScan, NullPlatform>, sid: StreamId, seq: u64, t: Time) {
    svc.ingest_at(sid, frame(sid, seq), t);
    svc.platform_mut().set_now(t + MILLISECOND);
    let _ = svc.service_once();
}

/// A burst of `n` frames ingested at once, then serviced far past their
/// deadlines — exercises the drop/reclaim path.
fn drop_burst(svc: &mut SchedService<LinearScan, NullPlatform>, sid: StreamId, seq0: u64, n: u64, t: Time) -> Time {
    for k in 0..n {
        svc.ingest_at(sid, frame(sid, seq0 + k), t);
    }
    let late = t + 1_000 * MILLISECOND;
    svc.platform_mut().set_now(late);
    while svc.has_pending() {
        let _ = svc.service_once();
    }
    late
}

#[test]
fn steady_state_service_pass_allocates_nothing() {
    let mut svc = traced_svc(LinearScan::new(8));
    // Loss tolerance 1/2: late heads drop within budget.
    let sid = svc.open(StreamQos::new(PERIOD, 1, 2));

    // Warm-up: reach every buffer's high-water mark — per-stream queue
    // depth 8 and a full (overflowing) trace ring — so steady state only
    // recycles capacity.
    let mut t = 0;
    let mut seq = 0;
    for _ in 0..64 {
        on_time_pass(&mut svc, sid, seq, t);
        seq += 1;
        t += PERIOD;
    }
    t = drop_burst(&mut svc, sid, seq, 8, t);
    seq += 8;
    assert!(ring_overflow(&mut svc) > 0, "warm-up should overflow the ring");
    let warm_reclaimed = svc.platform().reclaimed;
    assert!(warm_reclaimed > 0, "warm-up should exercise the drop path");

    // Steady state, gated: on-time passes plus a smaller drop burst, all
    // through the same service loop the NI placement runs.
    gate_on();
    for _ in 0..200 {
        on_time_pass(&mut svc, sid, seq, t);
        seq += 1;
        t += PERIOD;
    }
    t = drop_burst(&mut svc, sid, seq, 4, t);
    let allocs = gate_off();

    assert_eq!(
        allocs, 0,
        "steady-state service passes allocated {allocs} time(s) — the NI placement must run allocation-free after warm-up"
    );
    let _ = t;
    assert!(svc.platform().dispatched >= 200, "gated phase actually dispatched");
    assert!(
        svc.platform().reclaimed > warm_reclaimed,
        "gated phase actually exercised the drop path"
    );
}

/// The fused batch pass over the struct-of-arrays representation must be
/// just as allocation-free as the single-decision loop: the SoA columns,
/// the winner pyramid, and the dirty list are all sized at admission, and
/// `flush` recycles the dirty buffer (`mem::take` + restore) rather than
/// replacing it. Drop bursts run through `service_batch` too, so the
/// drop/reclaim path is covered on the batch path.
#[test]
fn batch_service_pass_allocates_nothing() {
    let mut svc = traced_svc(BatchSoa::new(8));
    let sids: Vec<StreamId> = (0..3).map(|_| svc.open(StreamQos::new(PERIOD, 1, 2))).collect();

    // Warm-up: per-stream queues, trace-ring overflow, and the pyramid's
    // dirty list all reach their high-water marks.
    let mut t = 0;
    let mut seq = 0;
    for _ in 0..64 {
        for &sid in &sids {
            svc.ingest_at(sid, frame(sid, seq), t);
        }
        svc.platform_mut().set_now(t + MILLISECOND);
        let _ = svc.service_batch(4);
        seq += 1;
        t += PERIOD;
    }
    for k in 0..8 {
        for &sid in &sids {
            svc.ingest_at(sid, frame(sid, seq + k), t);
        }
    }
    seq += 8;
    t += 1_000 * MILLISECOND;
    svc.platform_mut().set_now(t);
    while svc.has_pending() {
        let _ = svc.service_batch(16);
    }
    assert!(ring_overflow(&mut svc) > 0, "warm-up should overflow the ring");
    let warm_reclaimed = svc.platform().reclaimed;
    assert!(warm_reclaimed > 0, "warm-up should exercise the drop path");

    // Steady state, gated: fused sweeps plus a smaller drop burst.
    gate_on();
    for _ in 0..200 {
        for &sid in &sids {
            svc.ingest_at(sid, frame(sid, seq), t);
        }
        svc.platform_mut().set_now(t + MILLISECOND);
        let _ = svc.service_batch(4);
        seq += 1;
        t += PERIOD;
    }
    for k in 0..4 {
        for &sid in &sids {
            svc.ingest_at(sid, frame(sid, seq + k), t);
        }
    }
    t += 1_000 * MILLISECOND;
    svc.platform_mut().set_now(t);
    while svc.has_pending() {
        let _ = svc.service_batch(16);
    }
    let allocs = gate_off();

    assert_eq!(
        allocs, 0,
        "steady-state batch passes allocated {allocs} time(s) — the fused sweep must run allocation-free after warm-up"
    );
    assert!(svc.platform().dispatched >= 200, "gated phase actually dispatched");
    assert!(
        svc.platform().reclaimed > warm_reclaimed,
        "gated phase actually exercised the drop path on the batch path"
    );
}

/// A scheduler driven through bare `schedule_next` — as the bus
/// simulator, the fairness and FP-pricing tests and the Criterion
/// benches drive it, with nobody collecting dropped descriptors — must
/// not retain them. Every drop is handed out during the decision that
/// made it; nothing is staged inside the scheduler, so a long run of
/// late frames on a lossy stream allocates nothing once warm.
#[test]
fn schedule_next_retains_no_dropped_frames() {
    let mut sched = DwcsScheduler::new(LinearScan::new(8));
    // Loss tolerance 1/2: each round's late head drops within budget.
    let sid = sched.add_stream(StreamQos::new(PERIOD, 1, 2));
    let mut t = 0;
    let mut seq = 0;
    let mut round = |sched: &mut DwcsScheduler<LinearScan>, t: &mut Time| -> u64 {
        for _ in 0..4 {
            sched.enqueue(sid, frame(sid, seq), *t);
            seq += 1;
        }
        *t += 1_000 * MILLISECOND;
        let mut dropped = 0;
        while sched.has_pending() {
            dropped += u64::from(sched.schedule_next(*t).dropped);
        }
        dropped
    };
    // Warm-up: the stream's queue reaches its depth of four.
    for _ in 0..64 {
        round(&mut sched, &mut t);
    }

    gate_on();
    let mut dropped = 0;
    for _ in 0..10_000 {
        dropped += round(&mut sched, &mut t);
    }
    let allocs = gate_off();

    assert!(dropped >= 10_000, "the gated phase dropped only {dropped} frames");
    assert_eq!(
        allocs, 0,
        "schedule_next allocated {allocs} time(s) over {dropped} drops — dropped descriptors are being retained"
    );
}

/// A typed event that re-posts itself `DELAYS_NS[k]` later.
#[derive(Clone, Copy)]
struct Tick(usize);

/// Re-post delays that spread the wheel's entries over all three levels.
const DELAYS_NS: [u64; 4] = [3_000_000, 7_000_000, 11_000_000, 50_000_000];

impl Event<u64> for Tick {
    fn fire(self, fired: &mut u64, eng: &mut Engine<u64, Tick>) {
        *fired += 1;
        eng.post_in(SimDuration::from_nanos(DELAYS_NS[self.0]), self);
    }
}

/// The engine holds a typed event inline, so once the arena and the
/// wheel's slot vectors have reached their high-water marks, firing an
/// event and posting its successor allocate nothing. (Each closure event
/// is a box: the same loop of `schedule_in` calls allocates once per
/// step.)
#[test]
fn typed_engine_steady_state_allocates_nothing() {
    let mut eng: Engine<u64, Tick> = Engine::new();
    let mut fired = 0;
    for k in 0..DELAYS_NS.len() {
        eng.post_at(SimTime::ZERO, Tick(k));
    }
    // Warm-up: ~85 simulated seconds, past the wheel's 68.7 s horizon, so
    // every slot of every level has been used once.
    eng.run_steps(&mut fired, 50_000);
    assert!(
        eng.now() > SimTime::from_nanos(1 << 36),
        "warm-up ended at {:?}",
        eng.now()
    );

    gate_on();
    let steps = eng.run_steps(&mut fired, 10_000);
    let allocs = gate_off();

    assert_eq!((steps, fired, eng.pending()), (10_000, 60_000, 4));
    assert_eq!(
        allocs, 0,
        "10k steady-state typed events allocated {allocs} time(s) — events must be held inline"
    );
}

/// Allocations and engine events of one 12-card Path-B chassis run of
/// `ms` simulated milliseconds, 40 uniform streams per card.
fn chassis_allocs(ms: u64) -> (u64, u64) {
    let run = SimDuration::from_millis(ms);
    let cfg = ChassisConfig {
        cards: 12,
        plan: chassis::uniform_plan(480, run),
        frames_per_stream: (ms * 30 / 1_000) as usize + 2,
        run,
        sourcing: Sourcing::PathB,
        ..ChassisConfig::default()
    };
    gate_on();
    let r = chassis::run(cfg);
    let allocs = gate_off();
    (allocs, r.events)
}

/// Set-up (placement, per-card stacks, result series) allocates, but an
/// engine event — a bus transfer, a service pass, a bus wake — must not:
/// the allocations a longer run adds, per event it adds, stay near zero.
/// The figure prints under `--nocapture`: 0.084 with the bus pulling each
/// frame, 0.054 when every frame's production was an event of its own
/// (more events, as many allocations), 0.7 with a boxed closure per
/// production and per pass.
#[test]
fn chassis_engine_events_allocate_almost_nothing() {
    let (a_short, e_short) = chassis_allocs(250);
    let (a_long, e_long) = chassis_allocs(500);
    assert!(e_long > e_short + 5_000, "events {e_short} -> {e_long}");
    let per_event = a_long.saturating_sub(a_short) as f64 / (e_long - e_short) as f64;
    println!(
        "chassis: {per_event:.4} allocations per extra engine event \
         ({a_short} -> {a_long} allocations, {e_short} -> {e_long} events)"
    );
    assert!(
        per_event < 0.1,
        "{per_event:.3} allocations per extra engine event ({a_short} -> {a_long} allocations, {e_short} -> {e_long} events)"
    );
}
