//! Differential test: the timing-wheel [`Engine`] against the retired
//! binary-heap executive [`HeapEngine`] (kept in `simkit::reference` as
//! the oracle for exactly this test).
//!
//! Three drivers — the wheel posting boxed closures, the wheel posting a
//! `Copy` event enum held inline, and the heap — run an identical random
//! operation script: schedules across the wheel's levels and past its
//! overflow horizon, same-instant bursts, nested scheduling from inside
//! events, cancels of pending and already-fired events, `run_until`
//! boundary advances. They must log byte-identical `(fire_time, tag)`
//! sequences and agree on `pending()` after every operation. The
//! `(time, seq)` FIFO-stable firing order is the contract every saved
//! repro baseline rests on.
//!
//! Two properties then assert that order on the wheel outright: events fire
//! in nondecreasing time, FIFO among equal times, for arbitrary schedules
//! and for events scheduled from inside events.

use nistream::simkit::{Engine, Event, HeapEngine, SimDuration, SimTime};
use proptest::prelude::*;

/// The wheel horizon is 2^36 ns (~68.7 s); `Far` schedules land beyond it.
const HORIZON_NS: u64 = 1 << 36;

/// One step of the operation script, applied identically to both engines.
#[derive(Clone, Debug)]
enum Op {
    /// Schedule at `t`; if `nested` is set, the event schedules a
    /// follow-up `nested` ns after it fires.
    At { t: u64, nested: Option<u64> },
    /// `n` events at the same instant (FIFO order must hold among them).
    Burst { t: u64, n: u8 },
    /// Cancel the `k % ids.len()`-th id handed out so far (which may be
    /// pending, already fired, or already cancelled — all must behave
    /// identically, and the two latter identically to a no-op).
    Cancel { k: usize },
    /// Schedule past the wheel horizon (overflow-heap path).
    Far { t: u64 },
    /// Advance both engines to `t` (exercises `run_until` boundaries and
    /// makes later `Cancel`s hit fired events).
    RunUntil { t: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..50_000_000, 0u64..4_000_000)
            .prop_map(|(t, d)| Op::At { t, nested: (d > 0).then_some(d) }),
        2 => (0u64..50_000_000, 2u8..6).prop_map(|(t, n)| Op::Burst { t, n }),
        2 => (0usize..64).prop_map(|k| Op::Cancel { k }),
        1 => (HORIZON_NS..HORIZON_NS + 60_000_000_000).prop_map(|t| Op::Far { t }),
        1 => (0u64..60_000_000).prop_map(|t| Op::RunUntil { t }),
    ]
}

/// Fired-event log: `(fire_time_ns, tag)`. Tags are assigned in op order,
/// identically for every engine; nested follow-ups get `tag + 1_000_000`.
type Log = Vec<(u64, u32)>;

/// What a driver observed: the fired log, and `pending()` after each op.
type Observed = (Log, Vec<usize>);

/// The typed driver's event `Tagged(tag, nested)`: log `tag`, then post a
/// follow-up `nested` ns later if there is one.
#[derive(Clone, Copy)]
struct Tagged(u32, Option<u64>);

impl Event<Log> for Tagged {
    fn fire(self, w: &mut Log, e: &mut Engine<Log, Tagged>) {
        let Tagged(tag, nested) = self;
        w.push((e.now().as_nanos(), tag));
        if let Some(d) = nested {
            e.post_in(SimDuration::from_nanos(d), Tagged(tag + 1_000_000, None));
        }
    }
}

macro_rules! driver {
    ($name:ident, $engine:ty) => {
        fn $name(ops: &[Op]) -> Observed {
            type E = $engine;
            let mut e: E = <E>::new();
            let mut w: Log = Vec::new();
            let mut pending = Vec::new();
            let mut ids = Vec::new();
            let mut tag: u32 = 0;
            for op in ops {
                match *op {
                    Op::At { t, nested } => {
                        let my = tag;
                        tag += 1;
                        // Scheduling in the past is a contract violation
                        // (debug_assert in both engines); clamp to `now`
                        // when a prior RunUntil has advanced past `t`.
                        let at = SimTime::from_nanos(t).max(e.now());
                        ids.push(e.schedule_at(at, move |w: &mut Log, e: &mut E| {
                            w.push((e.now().as_nanos(), my));
                            if let Some(d) = nested {
                                e.schedule_in(SimDuration::from_nanos(d), move |w: &mut Log, e: &mut E| {
                                    w.push((e.now().as_nanos(), my + 1_000_000));
                                });
                            }
                        }));
                    }
                    Op::Burst { t, n } => {
                        let at = SimTime::from_nanos(t).max(e.now());
                        for _ in 0..n {
                            let my = tag;
                            tag += 1;
                            ids.push(e.schedule_at(at, move |w: &mut Log, e: &mut E| {
                                w.push((e.now().as_nanos(), my));
                            }));
                        }
                    }
                    Op::Cancel { k } => {
                        if !ids.is_empty() {
                            e.cancel(ids[k % ids.len()]);
                        }
                    }
                    Op::Far { t } => {
                        let my = tag;
                        tag += 1;
                        ids.push(
                            e.schedule_at(SimTime::from_nanos(t), move |w: &mut Log, e: &mut E| {
                                w.push((e.now().as_nanos(), my));
                            }),
                        );
                    }
                    Op::RunUntil { t } => e.run_until(&mut w, SimTime::from_nanos(t)),
                }
                pending.push(e.pending());
            }
            e.run(&mut w);
            pending.push(e.pending());
            (w, pending)
        }
    };
}

driver!(drive_wheel, Engine<Log>);
driver!(drive_heap, HeapEngine<Log>);

/// The same script on the wheel with [`Tagged`] events posted by value.
fn drive_typed(ops: &[Op]) -> Observed {
    let mut e: Engine<Log, Tagged> = Engine::new();
    let mut w: Log = Vec::new();
    let mut pending = Vec::new();
    let mut ids = Vec::new();
    let mut tag: u32 = 0;
    let mut next_tag = || {
        tag += 1;
        tag - 1
    };
    for op in ops {
        match *op {
            Op::At { t, nested } => {
                let at = SimTime::from_nanos(t).max(e.now());
                ids.push(e.post_at(at, Tagged(next_tag(), nested)));
            }
            Op::Burst { t, n } => {
                let at = SimTime::from_nanos(t).max(e.now());
                for _ in 0..n {
                    ids.push(e.post_at(at, Tagged(next_tag(), None)));
                }
            }
            Op::Cancel { k } => {
                if !ids.is_empty() {
                    e.cancel(ids[k % ids.len()]);
                }
            }
            Op::Far { t } => {
                ids.push(e.post_at(SimTime::from_nanos(t), Tagged(next_tag(), None)));
            }
            Op::RunUntil { t } => e.run_until(&mut w, SimTime::from_nanos(t)),
        }
        pending.push(e.pending());
    }
    e.run(&mut w);
    pending.push(e.pending());
    (w, pending)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn wheel_fires_identically_to_the_heap_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..120)
    ) {
        let wheel = drive_wheel(&ops);
        let typed = drive_typed(&ops);
        let heap = drive_heap(&ops);
        prop_assert_eq!(&wheel, &heap, "closure wheel diverged from the heap for ops {:?}", ops);
        prop_assert_eq!(&typed, &heap, "typed wheel diverged from the heap for ops {:?}", ops);
        // Shared sanity: the common log is (time, tag)-ordered per the
        // FIFO-stability contract.
        for pair in wheel.0.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0, "time order violated");
        }
    }

    #[test]
    fn wheel_and_heap_agree_on_pending_counts_under_cancel(
        times in proptest::collection::vec(0u64..1_000_000, 1..60),
        cancels in proptest::collection::vec(0usize..60, 0..30)
    ) {
        let mut wheel: Engine<Log> = Engine::new();
        let mut typed: Engine<Log, Tagged> = Engine::new();
        let mut heap: HeapEngine<Log> = HeapEngine::new();
        let mut wheel_ids = Vec::new();
        let mut typed_ids = Vec::new();
        let mut heap_ids = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            let tag = i as u32;
            wheel_ids.push(wheel.schedule_at(SimTime::from_nanos(t), move |w: &mut Log, e: &mut Engine<Log>| {
                w.push((e.now().as_nanos(), tag));
            }));
            typed_ids.push(typed.post_at(SimTime::from_nanos(t), Tagged(tag, None)));
            heap_ids.push(heap.schedule_at(SimTime::from_nanos(t), move |w: &mut Log, e: &mut HeapEngine<Log>| {
                w.push((e.now().as_nanos(), tag));
            }));
        }
        for &k in &cancels {
            wheel.cancel(wheel_ids[k % wheel_ids.len()]);
            typed.cancel(typed_ids[k % typed_ids.len()]);
            heap.cancel(heap_ids[k % heap_ids.len()]);
            prop_assert_eq!(wheel.pending(), heap.pending(), "pending diverged after cancel");
            prop_assert_eq!(typed.pending(), heap.pending(), "typed pending diverged after cancel");
        }
        let (mut lw, mut lt, mut lh) = (Vec::new(), Vec::new(), Vec::new());
        wheel.run(&mut lw);
        typed.run(&mut lt);
        heap.run(&mut lh);
        prop_assert_eq!(&lw, &lh);
        prop_assert_eq!(&lt, &lh);
        prop_assert_eq!(wheel.pending(), 0);
        prop_assert_eq!(typed.pending(), 0);
        prop_assert_eq!(heap.pending(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    #[test]
    fn engine_fires_in_time_then_fifo_order(times in proptest::collection::vec(0u64..10_000, 1..80)) {
        let mut eng: Engine<Log> = Engine::new();
        let mut log = Log::new();
        for (i, &t) in times.iter().enumerate() {
            let tag = i as u32;
            eng.schedule_at(SimTime::from_nanos(t), move |w: &mut Log, e| {
                w.push((e.now().as_nanos(), tag));
            });
        }
        eng.run(&mut log);
        prop_assert_eq!(log.len(), times.len());
        // Nondecreasing times; equal times in scheduling (tag) order.
        for pair in log.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0, "time order");
            if pair[0].0 == pair[1].0 {
                prop_assert!(pair[0].1 < pair[1].1, "FIFO among equals");
            }
        }
    }

    #[test]
    fn engine_nested_scheduling_preserves_order(seed_times in proptest::collection::vec(1u64..1_000, 1..30)) {
        let mut eng: Engine<Log> = Engine::new();
        let mut log = Log::new();
        for (i, &t) in seed_times.iter().enumerate() {
            let tag = i as u32;
            eng.schedule_at(SimTime::from_nanos(t), move |_w: &mut Log, e| {
                // Each event schedules a follow-up half its delay later.
                e.schedule_in(SimDuration::from_nanos(t / 2 + 1), move |w: &mut Log, e| {
                    w.push((e.now().as_nanos(), tag));
                });
            });
        }
        eng.run(&mut log);
        prop_assert_eq!(log.len(), seed_times.len());
        for pair in log.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0);
        }
    }
}
