//! Property: all three schedule representations implement the same
//! observable order — random head-update/remove/peek/pop sequences must
//! peek and pop exactly what LinearScan (the firmware-faithful reference)
//! does.

use nistream::dwcs::{BatchSoa, DualHeap, HeadKey, LinearScan, ScheduleRepr, StreamId};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Update { sid: u8, deadline: u64, x: u8, y: u8 },
    Remove { sid: u8 },
    Peek,
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u8..24, 0u64..500_000, 0u8..8, 1u8..9).prop_map(|(sid, deadline, x, y)| Op::Update {
            sid,
            deadline,
            x: x.min(y),
            y,
        }),
        1 => (0u8..24).prop_map(|sid| Op::Remove { sid }),
        1 => Just(Op::Peek),
        3 => Just(Op::Pop),
    ]
}

fn apply(repr: &mut dyn ScheduleRepr, ops: &[Op]) -> Vec<Option<u32>> {
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
            Op::Peek => log.push(repr.peek_min().map(|(sid, _)| sid.0)),
            Op::Pop => log.push(repr.pop_min().map(|(sid, _)| sid.0)),
        }
    }
    // Drain the rest.
    while let Some((sid, _)) = repr.pop_min() {
        log.push(Some(sid.0));
    }
    log.push(None);
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn all_representations_agree(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut reference = LinearScan::new(24);
        let expected = apply(&mut reference, &ops);

        let mut others: Vec<Box<dyn ScheduleRepr>> = vec![
            Box::new(DualHeap::new(24)),
            Box::new(BatchSoa::new(24)),
        ];
        for r in &mut others {
            let got = apply(r.as_mut(), &ops);
            prop_assert_eq!(&got, &expected, "repr {} diverged", r.name());
        }
    }

    #[test]
    fn len_is_consistent_across_reprs(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let mut reprs: Vec<Box<dyn ScheduleRepr>> = vec![
            Box::new(LinearScan::new(24)),
            Box::new(DualHeap::new(24)),
            Box::new(BatchSoa::new(24)),
        ];
        let mut arrivals = 0u64;
        for op in &ops {
            for r in &mut reprs {
                match *op {
                    Op::Update { sid, deadline, x, y } => {
                        r.update(StreamId(u32::from(sid)), HeadKey {
                            deadline,
                            x: u32::from(x),
                            y: u32::from(y),
                            arrival: arrivals,
                        });
                    }
                    Op::Remove { sid } => r.remove(StreamId(u32::from(sid))),
                    Op::Peek => {
                        r.peek_min();
                    }
                    Op::Pop => {
                        r.pop_min();
                    }
                }
            }
            if let Op::Update { .. } = op {
                arrivals += 1;
            }
            let lens: Vec<usize> = reprs.iter().map(|r| r.len()).collect();
            prop_assert!(lens.windows(2).all(|w| w[0] == w[1]), "lens {lens:?}");
        }
    }
}

/// Replay one op sequence — with deliberate equal-deadline ties — through
/// every representation and require identical winner orders. The random
/// sequences above rarely tie; this replay forces ties on every step.
#[test]
fn tie_heavy_replay_agrees_with_linear_scan() {
    fn winners<R: ScheduleRepr>(mut r: R) -> Vec<u32> {
        let n = 64u32;
        for i in 0..n {
            // i % 7 collides deadlines across streams: the tie rules run.
            r.update(
                StreamId(i),
                HeadKey {
                    deadline: 1_000 + u64::from(i % 7) * 100,
                    x: i % 3,
                    y: 4 + (i % 5),
                    arrival: u64::from(i),
                },
            );
        }
        let mut order = Vec::new();
        for (step, arrival) in (0..u64::from(n) * 4).zip(u64::from(n) + 1..) {
            let (sid, key) = r.pop_min().expect("cross-check keeps the schedule full");
            order.push(sid.0);
            if step % 5 == 4 {
                // Periodically leave the popped stream out for a step and
                // re-admit later, exercising remove/re-insert paths.
                r.remove(sid);
            }
            r.update(
                sid,
                HeadKey {
                    deadline: key.deadline + 1_000 + u64::from(sid.0 % 7) * 100,
                    arrival,
                    ..key
                },
            );
        }
        order
    }
    let reference = winners(LinearScan::new(64));
    assert_eq!(reference, winners(DualHeap::new(64)), "dual-heap diverged");
    assert_eq!(reference, winners(BatchSoa::new(64)), "batch-soa diverged");
}
